package main

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"rebalance/internal/sim"
	"rebalance/internal/sim/sweep"
	"rebalance/internal/wire"
)

// errEnvelope is the JSON body every simd 4xx/5xx must carry.
type errEnvelope struct {
	Error string `json:"error"`
	Code  int    `json:"code"`
}

// decodeEnvelope asserts resp is an error with the expected status and a
// well-formed envelope whose code mirrors the status line.
func decodeEnvelope(t *testing.T, resp *http.Response, wantStatus int) errEnvelope {
	t.Helper()
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d, want %d (body %s)", resp.StatusCode, wantStatus, body)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "application/json") {
		t.Errorf("error response Content-Type %q, want JSON", ct)
	}
	var e errEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatalf("error body is not a JSON envelope: %v", err)
	}
	if e.Error == "" || e.Code != wantStatus {
		t.Errorf("envelope %+v, want non-empty error and code %d", e, wantStatus)
	}
	return e
}

func doReq(t *testing.T, method, url string, body string) *http.Response {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// getSweep is one GET /v1/sweeps/{id}, its body strictly decoded: a poll
// is exactly a sweep.Status, so any field beyond it fails the test.
func getSweep(t *testing.T, base, id string) sweep.Status {
	t.Helper()
	resp := doReq(t, http.MethodGet, base+"/v1/sweeps/"+id, "")
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("poll status %d", resp.StatusCode)
	}
	var st sweep.Status
	if err := wire.StrictDecode(resp.Body, &st); err != nil {
		t.Fatalf("poll body is not a sweep status: %v", err)
	}
	return st
}

// pollSweep polls GET /v1/sweeps/{id} until the state is terminal,
// returning the last status.
func pollSweep(t *testing.T, base, id string) sweep.Status {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if st := getSweep(t, base, id); st.State.Terminal() {
			return st
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("sweep did not reach a terminal state")
	return sweep.Status{}
}

// normalizeReport strips a served sim/v1 report of its run-dependent
// fields so async and sync runs compare byte-for-byte.
func normalizeReport(t *testing.T, raw []byte) string {
	t.Helper()
	return render(t, decodeReport(t, raw))
}

func decodeReport(t *testing.T, raw []byte) *sim.Report {
	t.Helper()
	rep, err := sim.DecodeReport(raw)
	if err != nil {
		t.Fatalf("body does not decode as a sim/v1 report: %v", err)
	}
	return rep
}

// render is a report as normalizeReport compares it: Stripped, marshalled.
func render(t *testing.T, rep *sim.Report) string {
	t.Helper()
	out, err := json.Marshal(rep.Stripped())
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// TestSweepAsyncMatchesSyncRun is the PR's correctness anchor over the
// wire: submit → poll → fetch must produce a report byte-identical to the
// synchronous run endpoint for the same spec, up to the documented
// timing fields.
func TestSweepAsyncMatchesSyncRun(t *testing.T) {
	srv := testServer(t)
	spec := `{
		"workloads": ["comd-lite"],
		"seed_count": 2,
		"insts": 30000,
		"observers": [{"kind": "bpred", "options": {"configs": ["gshare-small"]}}, {"kind": "bbl"}]
	}`

	resp := doReq(t, http.MethodPost, srv.URL+"/v1/sweeps?tenant=alice", spec)
	if resp.StatusCode != http.StatusAccepted {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("submit: status %d: %s", resp.StatusCode, body)
	}
	var st struct {
		ID       string `json:"id"`
		Tenant   string `json:"tenant"`
		State    string `json:"state"`
		Progress struct {
			TotalShards int `json:"total_shards"`
		} `json:"progress"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.ID == "" || st.Tenant != "alice" || st.Progress.TotalShards != 4 {
		t.Fatalf("submit status %+v", st)
	}

	final := pollSweep(t, srv.URL, st.ID)
	if final.State != sweep.StateDone {
		t.Fatalf("sweep landed %s", final.State)
	}
	if prog := final.Progress; prog.DoneShards != 4 || prog.TotalShards != 4 {
		t.Errorf("terminal progress %+v, want 4/4", prog)
	}

	resResp := doReq(t, http.MethodGet, srv.URL+"/v1/sweeps/"+st.ID+"/result", "")
	if resResp.StatusCode != http.StatusOK {
		t.Fatalf("result: status %d", resResp.StatusCode)
	}
	asyncRaw, err := io.ReadAll(resResp.Body)
	resResp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	syncResp := doReq(t, http.MethodPost, srv.URL+"/v1/runs", spec)
	if syncResp.StatusCode != http.StatusOK {
		t.Fatalf("sync run: status %d", syncResp.StatusCode)
	}
	syncRaw, err := io.ReadAll(syncResp.Body)
	syncResp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := normalizeReport(t, asyncRaw), normalizeReport(t, syncRaw); got != want {
		t.Errorf("async report differs from sync run:\nasync: %s\n sync: %s", got, want)
	}

	// The listing shows the sweep under its tenant.
	listResp := doReq(t, http.MethodGet, srv.URL+"/v1/sweeps?tenant=alice", "")
	var list struct {
		Sweeps []struct {
			ID string `json:"id"`
		} `json:"sweeps"`
	}
	if err := json.NewDecoder(listResp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	listResp.Body.Close()
	found := false
	for _, s := range list.Sweeps {
		found = found || s.ID == st.ID
	}
	if !found {
		t.Errorf("listing for tenant alice misses sweep %s: %+v", st.ID, list.Sweeps)
	}
}

// TestSweepSubmitRejections pins the 400 mapping: malformed JSON, unknown
// fields, semantically invalid specs, and over-budget specs are all 400
// envelopes before any queueing.
func TestSweepSubmitRejections(t *testing.T) {
	srv := testServer(t)
	for name, body := range map[string]string{
		"malformed json":   `{"workloads": [`,
		"unknown field":    `{"workloadz": ["comd-lite"]}`,
		"no observers":     `{"workloads": ["comd-lite"], "insts": 1000, "observers": []}`,
		"unknown workload": `{"workloads": ["no-such"], "insts": 1000, "observers": [{"kind": "bbl"}]}`,
		"reference engine": `{"workloads": ["comd-lite"], "insts": 1000, "engine": "reference", "observers": [{"kind": "bbl"}]}`,
		"over max-insts":   `{"workloads": ["comd-lite"], "insts": 100000000, "observers": [{"kind": "bbl"}]}`,
		"over max-shards":  `{"workloads": ["comd-lite"], "seed_count": 1000, "insts": 1000, "observers": [{"kind": "bbl"}]}`,
	} {
		resp := doReq(t, http.MethodPost, srv.URL+"/v1/sweeps", body)
		env := decodeEnvelope(t, resp, http.StatusBadRequest)
		if env.Error == "" {
			t.Errorf("%s: empty error message", name)
		}
	}
}

// stubServer stands up a simd handler whose sweep coordinator executes a
// caller-controlled RunFunc — the harness for admission and lifecycle
// tests that must not depend on real simulation timing.
func stubServer(t *testing.T, opts sweep.Options) *httptest.Server {
	t.Helper()
	sess := sim.NewSession(1)
	coord, err := sweep.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)
	srv := httptest.NewServer(newServer(serverConfig{sess: sess, maxInsts: 1_000_000, coord: coord}))
	t.Cleanup(srv.Close)
	return srv
}

// TestSweepAdmission429 saturates one tenant's queue and pins the 429 +
// Retry-After contract, while a second tenant's submit is still admitted.
func TestSweepAdmission429(t *testing.T) {
	release := make(chan struct{})
	t.Cleanup(func() { close(release) })
	started := make(chan struct{}, 1)
	srv := stubServer(t, sweep.Options{
		QueueDepth: 2,
		MaxRunning: 1,
		Run: func(ctx context.Context, spec *sim.Spec) (*sim.Report, error) {
			select {
			case started <- struct{}{}:
			default:
			}
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-release:
				return &sim.Report{Schema: sim.SchemaV1}, nil
			}
		},
	})
	spec := `{"workloads": ["comd-lite"], "insts": 1000, "observers": [{"kind": "bbl"}]}`

	// One running + 2 queued fills tenant a; the queue drains only when
	// release closes, so the 3rd queued submit must bounce.
	for i := 0; i < 3; i++ {
		resp := doReq(t, http.MethodPost, srv.URL+"/v1/sweeps?tenant=a", spec)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: status %d", i, resp.StatusCode)
		}
		resp.Body.Close()
		if i == 0 {
			<-started // out of the queue: the coordinator dequeues a sweep before running it
		}
	}
	resp := doReq(t, http.MethodPost, srv.URL+"/v1/sweeps?tenant=a", spec)
	decodeEnvelope(t, resp, http.StatusTooManyRequests)
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("429 carries no Retry-After header")
	}

	// Admission is per tenant: b submits freely past a's saturation.
	bResp := doReq(t, http.MethodPost, srv.URL+"/v1/sweeps?tenant=b", spec)
	if bResp.StatusCode != http.StatusAccepted {
		t.Errorf("tenant b: status %d, want 202", bResp.StatusCode)
	}
	bResp.Body.Close()
}

// TestSweepLifecycleEndpoints drives the non-happy surface with a stub
// run: result before terminal is 409 + Retry-After, DELETE cancels a
// running sweep (and its result becomes 410), unknown IDs are 404s, and
// re-cancelling a terminal sweep is a 409.
func TestSweepLifecycleEndpoints(t *testing.T) {
	started := make(chan struct{}, 4)
	srv := stubServer(t, sweep.Options{
		MaxRunning: 1,
		Run: func(ctx context.Context, spec *sim.Spec) (*sim.Report, error) {
			started <- struct{}{}
			<-ctx.Done()
			return nil, ctx.Err()
		},
	})
	spec := `{"workloads": ["comd-lite"], "insts": 1000, "observers": [{"kind": "bbl"}]}`

	resp := doReq(t, http.MethodPost, srv.URL+"/v1/sweeps", spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	var st struct {
		ID     string `json:"id"`
		Tenant string `json:"tenant"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Tenant != "default" {
		t.Errorf("tenant defaulted to %q, want default", st.Tenant)
	}
	<-started

	// Result while running: 409 with a Retry-After hint.
	r409 := doReq(t, http.MethodGet, srv.URL+"/v1/sweeps/"+st.ID+"/result", "")
	decodeEnvelope(t, r409, http.StatusConflict)
	if r409.Header.Get("Retry-After") == "" {
		t.Error("409 result carries no Retry-After header")
	}

	// Unknown IDs: 404 envelopes on every per-sweep endpoint.
	for _, req := range [][2]string{
		{http.MethodGet, "/v1/sweeps/sw-nope"},
		{http.MethodGet, "/v1/sweeps/sw-nope/result"},
		{http.MethodDelete, "/v1/sweeps/sw-nope"},
	} {
		decodeEnvelope(t, doReq(t, req[0], srv.URL+req[1], ""), http.StatusNotFound)
	}

	// Cancel the running sweep; it lands cancelled and its result is 410.
	del := doReq(t, http.MethodDelete, srv.URL+"/v1/sweeps/"+st.ID, "")
	if del.StatusCode != http.StatusOK {
		t.Fatalf("cancel: status %d", del.StatusCode)
	}
	del.Body.Close()
	if final := pollSweep(t, srv.URL, st.ID); final.State != sweep.StateCancelled {
		t.Errorf("state after cancel %s", final.State)
	}
	decodeEnvelope(t, doReq(t, http.MethodGet, srv.URL+"/v1/sweeps/"+st.ID+"/result", ""), http.StatusGone)
	decodeEnvelope(t, doReq(t, http.MethodDelete, srv.URL+"/v1/sweeps/"+st.ID, ""), http.StatusConflict)
}

// TestSweepPollIsStatus: GET /v1/sweeps/{id} serves exactly a
// sweep.Status — no landed shards — while the sweep is queued, while it
// runs with shard outcomes already counted, and once it is terminal.
func TestSweepPollIsStatus(t *testing.T) {
	srv := stubServer(t, sweep.Options{
		MaxRunning: 1,
		Run: func(ctx context.Context, spec *sim.Spec) (*sim.Report, error) {
			sim.ShardDone(ctx, sim.Shard{Workload: "comd-lite", Seed: 1, Observer: "bbl", Insts: 1000, Cached: true}, nil)
			sim.ShardDone(ctx, sim.Shard{Workload: "comd-lite", Seed: 2, Observer: "bbl", Insts: 1000}, nil)
			sim.ShardDone(ctx, sim.Shard{}, errors.New("sim: shard {comd-lite 3 bbl}: rejected"))
			<-ctx.Done()
			return nil, ctx.Err()
		},
	})
	spec := `{"workloads": ["comd-lite"], "seed_count": 3, "insts": 1000, "observers": [{"kind": "bbl"}]}`
	running := submitSweep(t, srv.URL, "a", spec)
	queued := submitSweep(t, srv.URL, "a", spec)

	if st := getSweep(t, srv.URL, queued); st.State != sweep.StateQueued {
		t.Errorf("second sweep under MaxRunning 1 is %s, want queued", st.State)
	}
	want := sweep.Progress{TotalShards: 3, DoneShards: 2, CachedShards: 1, FailedShards: 1}
	deadline := time.Now().Add(10 * time.Second)
	for st := getSweep(t, srv.URL, running); st.Progress != want; st = getSweep(t, srv.URL, running) {
		if st.State != sweep.StateRunning || time.Now().After(deadline) {
			t.Fatalf("running sweep polled %s %+v, want running %+v", st.State, st.Progress, want)
		}
		runtime.Gosched()
	}
	for _, id := range []string{running, queued} {
		del := doReq(t, http.MethodDelete, srv.URL+"/v1/sweeps/"+id, "")
		del.Body.Close()
		if st := pollSweep(t, srv.URL, id); st.State != sweep.StateCancelled {
			t.Errorf("sweep %s landed %s after DELETE, want cancelled", id, st.State)
		}
	}
}

// blocks is the set of /v1/stats's top-level keys.
func blocks(stats map[string]json.RawMessage) []string {
	var keys []string
	for k := range stats {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// TestStatsEndpoint checks the unified /v1/stats shape: exactly the cache
// and sweeps blocks on a coordinator, the dispatch block — exactly hedges,
// hedge_wins, probes, healthy — beside them with -backends, and the cache
// block alone on a -worker. The sweeps block carries per-tenant gauges.
func TestStatsEndpoint(t *testing.T) {
	srv := testServer(t)
	spec := `{"workloads": ["comd-lite"], "insts": 5000, "observers": [{"kind": "bbl"}]}`
	resp := doReq(t, http.MethodPost, srv.URL+"/v1/sweeps?tenant=statseer", spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	var st struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	pollSweep(t, srv.URL, st.ID)

	var stats map[string]json.RawMessage
	getJSON(t, srv.URL+"/v1/stats", &stats)
	if got, want := blocks(stats), []string{"cache", "sweeps"}; !slices.Equal(got, want) {
		t.Errorf("coordinator /v1/stats blocks %v, want %v", got, want)
	}
	var sw struct {
		Tenants map[string]struct {
			Done int64 `json:"done"`
		} `json:"tenants"`
	}
	if err := json.Unmarshal(stats["sweeps"], &sw); err != nil {
		t.Fatalf("sweeps block: %v", err)
	}
	if sw.Tenants["statseer"].Done != 1 {
		t.Errorf("tenant gauges %+v, want statseer done=1", sw.Tenants)
	}

	// With -backends the dispatch block is there, in the wire's dialect:
	// exactly these snake_case keys, healthy listing both workers.
	stats = nil
	getJSON(t, partialCoordinator(t).URL+"/v1/stats", &stats)
	if got, want := blocks(stats), []string{"cache", "dispatch", "sweeps"}; !slices.Equal(got, want) {
		t.Errorf("-backends coordinator /v1/stats blocks %v, want %v", got, want)
	}
	var disp map[string]json.RawMessage
	if err := json.Unmarshal(stats["dispatch"], &disp); err != nil {
		t.Fatalf("dispatch block %s: %v", stats["dispatch"], err)
	}
	for _, key := range []string{"hedges", "hedge_wins", "probes", "healthy"} {
		if _, ok := disp[key]; !ok {
			t.Errorf("dispatch block %s misses %q", stats["dispatch"], key)
		}
		delete(disp, key)
	}
	if len(disp) != 0 {
		t.Errorf("dispatch block carries unexpected keys %v", disp)
	}
	var healthy struct {
		Healthy []string `json:"healthy"`
	}
	if err := json.Unmarshal(stats["dispatch"], &healthy); err != nil || len(healthy.Healthy) != 2 {
		t.Errorf("dispatch.healthy = %v (err %v), want both backends", healthy.Healthy, err)
	}

	worker := httptest.NewServer(newServer(serverConfig{sess: sim.NewSession(2), maxInsts: 1_000_000, worker: true}))
	t.Cleanup(worker.Close)
	stats = nil
	getJSON(t, worker.URL+"/v1/stats", &stats)
	if got, want := blocks(stats), []string{"cache"}; !slices.Equal(got, want) {
		t.Errorf("-worker /v1/stats blocks %v, want %v", got, want)
	}
}

// TestErrorEnvelopeEverywhere pins the satellite: responses produced by
// the mux itself (unknown path, wrong method) carry the JSON envelope,
// not net/http's plain text.
func TestErrorEnvelopeEverywhere(t *testing.T) {
	srv := testServer(t)
	decodeEnvelope(t, doReq(t, http.MethodGet, srv.URL+"/v1/no-such-endpoint", ""), http.StatusNotFound)
	decodeEnvelope(t, doReq(t, http.MethodDelete, srv.URL+"/v1/workloads", ""), http.StatusMethodNotAllowed)
}

// TestSweepIDShape: IDs must be URL-safe and unguessable-ish (sequence
// plus random suffix), since they are the only handle on a result.
func TestSweepIDShape(t *testing.T) {
	srv := testServer(t)
	spec := `{"workloads": ["comd-lite"], "insts": 1000, "observers": [{"kind": "bbl"}]}`
	pat := regexp.MustCompile(`^sw-\d{6}-[0-9a-f]{12}$`)
	seen := map[string]bool{}
	for i := 0; i < 3; i++ {
		resp := doReq(t, http.MethodPost, srv.URL+"/v1/sweeps", spec)
		var st struct {
			ID string `json:"id"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if !pat.MatchString(st.ID) {
			t.Errorf("sweep ID %q does not match %s", st.ID, pat)
		}
		if seen[st.ID] {
			t.Fatalf("duplicate sweep ID %q", st.ID)
		}
		seen[st.ID] = true
	}
}
