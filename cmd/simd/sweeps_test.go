package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/http/httptrace"
	"net/textproto"
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
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var st sweep.Status
	if err := wire.StrictUnmarshal(body, &st); err != nil {
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

	// A HEAD, say a proxy's probe, is refused and takes nothing: the GET
	// after it still gets the report.
	headResp := doReq(t, http.MethodHead, srv.URL+"/v1/sweeps/"+st.ID+"/result", "")
	headResp.Body.Close()
	if headResp.StatusCode != http.StatusMethodNotAllowed || headResp.Header.Get("Allow") != http.MethodGet {
		t.Errorf("HEAD result: status %d, Allow %q; want 405 allowing GET", headResp.StatusCode, headResp.Header.Get("Allow"))
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
	// The fetch handed the report over: a second one is a 410 saying so,
	// and the sweep stays listed as its status.
	if env := decodeEnvelope(t, doReq(t, http.MethodGet, srv.URL+"/v1/sweeps/"+st.ID+"/result", ""), http.StatusGone); !strings.Contains(env.Error, "collected") {
		t.Errorf("second result fetch: %q, want a 410 naming the earlier collection", env.Error)
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

// TestSweepSubmitRejections pins the 400 mapping on both submit
// endpoints: malformed JSON, unknown fields, semantically invalid specs,
// and specs over -max-insts or the coordinator's -max-shards are all 400
// envelopes before anything runs.
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
		for _, path := range []string{"/v1/runs", "/v1/sweeps"} {
			env := decodeEnvelope(t, doReq(t, http.MethodPost, srv.URL+path, body), http.StatusBadRequest)
			if env.Error == "" {
				t.Errorf("%s to %s: empty error message", name, path)
			}
		}
	}
}

// stubServer stands up a simd handler whose sweep coordinator executes a
// caller-controlled RunFunc — the harness for admission and lifecycle
// tests that must not depend on real simulation timing.
func stubServer(t *testing.T, opts sweep.Options) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(newServer(serverConfig{sess: sim.NewSession(1), maxInsts: 1_000_000, coord: newCoord(t, opts)}))
	t.Cleanup(srv.Close)
	return srv
}

// TestSweepAdmission429 pins admission against the shard budget at
// MaxShards 8: a share of 2 × 8 + 32 = 48 entries, the charge of the
// largest sweep (one seed over eight BTB geometries), and a budget of 96.
// The stub runs that sweep until the test ends and lands every other at
// once. Uncollected reports filling the budget refuse no submit: the
// oldest are released, and a released result is a 410 saying so. Tenant
// a's largest sweep fills its share, so its next submit is a 429 +
// Retry-After naming it, while tenant b's small submit is admitted.
func TestSweepAdmission429(t *testing.T) {
	release := make(chan struct{})
	t.Cleanup(func() { close(release) })
	srv := stubServer(t, sweep.Options{
		MaxShards: 8,
		Run: func(ctx context.Context, spec *sim.Spec) (*sim.Report, error) {
			if n, err := spec.GridSize(); err != nil || spec.Observers[0].Kind != "btb" {
				return &sim.Report{Schema: sim.SchemaV1, Shards: make([]sim.Shard, n), Merged: make([]sim.Merged, 1)}, err
			}
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-release:
				return nil, errors.New("released")
			}
		},
	})
	one := `{"workloads": ["comd-lite"], "insts": 1000, "observers": [{"kind": "bbl"}]}`
	eight := `{"workloads": ["comd-lite"], "seed_count": 8, "insts": 1000, "observers": [{"kind": "bbl"}]}`
	geoms := make([]string, 8)
	for i := range geoms {
		geoms[i] = fmt.Sprintf(`{"entries": %d, "ways": 1}`, i+1)
	}
	largest := `{"workloads": ["comd-lite"], "insts": 1000, "observers": [{"kind": "btb", "options": {"geometries": [` + strings.Join(geoms, ",") + `]}}]}`

	// Ten landed reports of 9 entries hold 90 of the budget's 96 uncollected.
	var landed []string
	for range 10 {
		id := submitSweep(t, srv.URL, "c", eight)
		pollSweep(t, srv.URL, id)
		landed = append(landed, id)
	}
	submitSweep(t, srv.URL, "a", largest)
	if env := decodeEnvelope(t, doReq(t, http.MethodGet, srv.URL+"/v1/sweeps/"+landed[0]+"/result", ""), http.StatusGone); !strings.Contains(env.Error, "released uncollected") {
		t.Errorf("oldest uncollected result: %q, want a 410 naming its release", env.Error)
	}

	resp := doReq(t, http.MethodPost, srv.URL+"/v1/sweeps?tenant=a", one)
	if env := decodeEnvelope(t, resp, http.StatusTooManyRequests); !strings.Contains(env.Error, `tenant "a" runs 48 of its 48`) {
		t.Errorf("429 reads %q, want it to name a's running entries and share", env.Error)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("429 carries no Retry-After header")
	}

	// Admission is per tenant: b submits beside a's full share.
	bResp := doReq(t, http.MethodPost, srv.URL+"/v1/sweeps?tenant=b", one)
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
// sweep.Status — no landed shards — while the sweep runs with shard
// outcomes already counted, and once it is terminal.
func TestSweepPollIsStatus(t *testing.T) {
	srv := stubServer(t, sweep.Options{
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
	want := sweep.Progress{TotalShards: 3, DoneShards: 2, CachedShards: 1, FailedShards: 1}
	deadline := time.Now().Add(10 * time.Second)
	for st := getSweep(t, srv.URL, running); st.Progress != want; st = getSweep(t, srv.URL, running) {
		if st.State != sweep.StateRunning || time.Now().After(deadline) {
			t.Fatalf("running sweep polled %s %+v, want running %+v", st.State, st.Progress, want)
		}
		runtime.Gosched()
	}
	del := doReq(t, http.MethodDelete, srv.URL+"/v1/sweeps/"+running, "")
	del.Body.Close()
	if st := pollSweep(t, srv.URL, running); st.State != sweep.StateCancelled {
		t.Errorf("sweep landed %s after DELETE, want cancelled", st.State)
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
		Budget          int `json:"budget"`
		HeldRunning     int `json:"held_running"`
		HeldUncollected int `json:"held_uncollected"`
		Tenants         map[string]struct {
			HeldRunning *int  `json:"held_running"`
			Done        int64 `json:"done"`
		} `json:"tenants"`
	}
	if err := json.Unmarshal(stats["sweeps"], &sw); err != nil {
		t.Fatalf("sweeps block: %v", err)
	}
	if tq := sw.Tenants["statseer"]; tq.Done != 1 || tq.HeldRunning == nil || *tq.HeldRunning != 0 {
		t.Errorf("tenant gauges %+v, want statseer done=1 with 0 entries running", sw.Tenants)
	}
	// The landed sweep's report, 1 shard and 1 merged entry, is held
	// uncollected against two shares of the largest sweep at the front
	// door's 256 max shards: 2 × 256 entries and 32 for the sweep itself.
	if sw.Budget != 1088 || sw.HeldRunning != 0 || sw.HeldUncollected != 2 {
		t.Errorf("budget gauges %s, want 2 of 1088 entries held uncollected", stats["sweeps"])
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

	stats = nil
	getJSON(t, workerServer(t, 1_000_000).URL+"/v1/stats", &stats)
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

// TestSyncRunIsASweep: POST /v1/runs is a sweep the request waits on. Its
// interim 103 names the sweep (Location: /v1/sweeps/{id}), which is listed
// under its tenant while the run is held; once the hold lifts it answers a
// 200, with no Location of its own, and the report a direct Session.Run
// gives, and its sweep is no longer retained. A client that hangs up on its
// sync run leaves that sweep cancelled, read once it has landed.
func TestSyncRunIsASweep(t *testing.T) {
	sess := sim.NewSession(2)
	hold := make(chan struct{})
	coord := newCoord(t, sweep.Options{Run: func(ctx context.Context, spec *sim.Spec) (*sim.Report, error) {
		select {
		case <-hold:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return sess.Run(ctx, spec)
	}})
	// handled names the tenant of each /v1/runs request as its handler
	// returns, so the test learns what a hang-up did without sleeping.
	handled := make(chan string, 2)
	h := newServer(serverConfig{sess: sess, maxInsts: 1_000_000, coord: coord})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h.ServeHTTP(w, r)
		if r.URL.Path == "/v1/runs" {
			handled <- tenantOf(r)
		}
	}))
	t.Cleanup(srv.Close)
	// Closing the coordinator first lands every waiting run, so a failed
	// check never leaves srv.Close waiting on a handler.
	t.Cleanup(coord.Close)
	const spec = `{"workloads": ["comd-lite"], "seed_count": 2, "insts": 20000, "observers": [{"kind": "bbl"}]}`

	// post is POST /v1/runs as tenant on ctx: the 103's Location on the
	// first channel, the final answer on the second.
	type answer struct {
		status   int
		location string
		body     []byte
		err      error
	}
	post := func(ctx context.Context, tenant string) (<-chan string, <-chan answer) {
		loc, out := make(chan string, 1), make(chan answer, 1)
		ctx = httptrace.WithClientTrace(ctx, &httptrace.ClientTrace{
			Got1xxResponse: func(code int, h textproto.MIMEHeader) error {
				if code == http.StatusEarlyHints {
					loc <- h.Get("Location")
				}
				return nil
			},
		})
		go func() {
			req, err := http.NewRequestWithContext(ctx, http.MethodPost, srv.URL+"/v1/runs?tenant="+tenant, strings.NewReader(spec))
			if err != nil {
				out <- answer{err: err}
				return
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				out <- answer{err: err}
				return
			}
			defer resp.Body.Close()
			body, err := io.ReadAll(resp.Body)
			out <- answer{resp.StatusCode, resp.Header.Get("Location"), body, err}
		}()
		return loc, out
	}
	idOf := func(location string) string {
		t.Helper()
		id, ok := strings.CutPrefix(location, "/v1/sweeps/")
		if !ok {
			t.Fatalf("103 Location %q does not name a sweep", location)
		}
		return id
	}

	loc, ran := post(context.Background(), "sync")
	synced := idOf(<-loc)
	var list struct {
		Sweeps []sweep.Status `json:"sweeps"`
	}
	if getJSON(t, srv.URL+"/v1/sweeps?tenant=sync", &list); len(list.Sweeps) != 1 ||
		list.Sweeps[0].ID != synced || list.Sweeps[0].State != sweep.StateRunning {
		t.Errorf("tenant sync lists %+v, want its held sync run %s running", list.Sweeps, synced)
	}

	hangUp, cancel := context.WithCancel(context.Background())
	loc, abandoned := post(hangUp, "gone")
	gone := idOf(<-loc)
	cancel()
	if a := <-abandoned; a.err == nil {
		t.Errorf("the abandoning client got an answer: %d %s", a.status, a.body)
	}
	// A handler the hang-up did not reach would wait on the hold: the bound
	// turns that into a failure instead of a hung test.
	select {
	case tenant := <-handled:
		if tenant != "gone" {
			t.Fatalf("tenant %s's sync run returned first, want the abandoned one", tenant)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the abandoned sync run's handler never returned")
	}

	close(hold)
	a := <-ran
	if a.err != nil || a.status != http.StatusOK || a.location != "" {
		t.Fatalf("sync run answered %d (Location %q) %s (%v), want a 200 without one", a.status, a.location, a.body, a.err)
	}
	if st, ok := coord.Get(synced); ok {
		t.Errorf("answered sync run still retained: %+v", st)
	}
	parsed, err := sim.DecodeSpec([]byte(spec))
	if err != nil {
		t.Fatal(err)
	}
	direct, err := sess.Run(context.Background(), parsed)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := normalizeReport(t, a.body), render(t, direct); got != want {
		t.Errorf("sync run differs from a direct Session.Run:\n run: %s\nwant: %s", got, want)
	}

	// Close lands the abandoned sweep, if its cancel has not yet.
	coord.Close()
	if st, ok := coord.Get(gone); !ok || st.State != sweep.StateCancelled || coord.Stats().Retained != 1 {
		t.Errorf("abandoned sync run's sweep: %+v (found %v, %d retained), want it retained cancelled", st, ok, coord.Stats().Retained)
	}
}
