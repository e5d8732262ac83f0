package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"rebalance/internal/sim"
	"rebalance/internal/sim/dispatch"
	"rebalance/internal/sim/sweep"
	"rebalance/internal/wire"
	"rebalance/internal/workload/synth"
)

// testServer stands up a front door: a session of two workers and its
// sweep coordinator.
func testServer(t *testing.T) *httptest.Server {
	t.Helper()
	sess := sim.NewSession(2)
	srv := httptest.NewServer(newServer(serverConfig{sess: sess, maxInsts: 1_000_000,
		coord: newCoord(t, sweep.Options{Run: sess.Run, MaxShards: 256})}))
	t.Cleanup(srv.Close)
	return srv
}

// workerServer stands up a -worker: a session and no coordinator.
func workerServer(t *testing.T, maxInsts int64) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(newServer(serverConfig{sess: sim.NewSession(2), maxInsts: maxInsts}))
	t.Cleanup(srv.Close)
	return srv
}

// newCoord is a sweep coordinator closed when the test ends.
func newCoord(t *testing.T, opts sweep.Options) *sweep.Coordinator {
	t.Helper()
	coord, err := sweep.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)
	return coord
}

func getJSON(t *testing.T, url string, into any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
		t.Fatalf("GET %s: decoding: %v", url, err)
	}
}

// postShard posts spec to the worker protocol as a one-member array and
// returns the member's record: the shard, or its {"error", "invalid"}.
func postShard(t *testing.T, url, spec string) map[string]json.RawMessage {
	t.Helper()
	resp, err := http.Post(url+"/v1/shards", "application/json", bytes.NewReader([]byte("["+spec+"]")))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/shards: status %d", resp.StatusCode)
	}
	var recs []map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&recs); err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("POST /v1/shards answered %d records for one member", len(recs))
	}
	return recs[0]
}

// TestRegistryEndpoints pins the three name listings exactly: the name
// sets are fixed, so any change to them is a change to the service.
func TestRegistryEndpoints(t *testing.T) {
	srv := testServer(t)

	var wl struct {
		Workloads []string `json:"workloads"`
	}
	getJSON(t, srv.URL+"/v1/workloads", &wl)
	if want := []string{"comd-lite", "xalan-lite"}; !slices.Equal(wl.Workloads, want) {
		t.Errorf("/v1/workloads = %v, want %v", wl.Workloads, want)
	}

	var preds struct {
		Predictors []struct {
			Name     string `json:"name"`
			CostBits int    `json:"cost_bits"`
		} `json:"predictors"`
	}
	getJSON(t, srv.URL+"/v1/predictors", &preds)
	var names []string
	for _, p := range preds.Predictors {
		names = append(names, p.Name)
		if p.CostBits <= 0 {
			t.Errorf("/v1/predictors entry %+v has no cost", p)
		}
	}
	figure5 := []string{"gshare-big", "tournament-big", "tage-big", "gshare-small", "tournament-small",
		"tage-small", "L-gshare-small", "L-tournament-small", "L-tage-small"}
	if !slices.Equal(names, figure5) {
		t.Errorf("/v1/predictors names = %v, want %v", names, figure5)
	}

	var obs struct {
		Observers []string `json:"observers"`
	}
	getJSON(t, srv.URL+"/v1/observers", &obs)
	if want := []string{"bbl", "bias", "bpred", "branch-mix", "btb", "footprint", "icache"}; !slices.Equal(obs.Observers, want) {
		t.Errorf("/v1/observers = %v, want %v", obs.Observers, want)
	}
}

// TestRunRoundTrip is the acceptance check: POST a Spec naming both
// workloads, get back a valid sim/v1 report.
func TestRunRoundTrip(t *testing.T) {
	srv := testServer(t)
	spec := `{
		"workloads": ["comd-lite", "xalan-lite"],
		"seed_count": 1,
		"insts": 30000,
		"observers": [
			{"kind": "bpred", "options": {"configs": ["gshare-small", "tage-small"]}},
			{"kind": "btb", "options": {"geometries": [{"entries": 512, "ways": 4}]}},
			{"kind": "icache"},
			{"kind": "branch-mix"},
			{"kind": "bias"},
			{"kind": "footprint"},
			{"kind": "bbl"}
		]
	}`
	resp, err := http.Post(srv.URL+"/v1/runs", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/runs: status %d", resp.StatusCode)
	}
	var rep struct {
		Schema string `json:"schema"`
		Spec   struct {
			Workloads []string `json:"workloads"`
			Engine    string   `json:"engine"`
		} `json:"spec"`
		Shards []struct {
			Workload string          `json:"workload"`
			Observer string          `json:"observer"`
			Insts    int64           `json:"insts"`
			Result   json.RawMessage `json:"result"`
		} `json:"shards"`
		Merged []struct {
			Workload string          `json:"workload"`
			Observer string          `json:"observer"`
			Seeds    int             `json:"seeds"`
			Result   json.RawMessage `json:"result"`
		} `json:"merged"`
		TotalInsts int64 `json:"total_insts"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	if rep.Schema != sim.SchemaV1 {
		t.Errorf("schema %q, want %q", rep.Schema, sim.SchemaV1)
	}
	if len(rep.Spec.Workloads) != 2 || rep.Spec.Engine != "compiled" {
		t.Errorf("normalized spec not echoed: %+v", rep.Spec)
	}
	// 16 configs per workload: 2 bpred + 1 btb + 9 icache (no options
	// selects the standard Figure 8 grid) + 4 analysis collectors.
	if want := 2 * 16; len(rep.Shards) != want {
		t.Errorf("got %d shards, want %d", len(rep.Shards), want)
	}
	if want := 2 * 16; len(rep.Merged) != want {
		t.Errorf("got %d merged, want %d", len(rep.Merged), want)
	}
	for _, sh := range rep.Shards {
		if sh.Insts < 30000 {
			t.Errorf("shard %s/%s emitted %d < budget", sh.Workload, sh.Observer, sh.Insts)
		}
		if len(sh.Result) == 0 || string(sh.Result) == "null" {
			t.Errorf("shard %s/%s has empty result", sh.Workload, sh.Observer)
		}
	}
}

// TestWorkerMode checks the two roles' surfaces: a -worker serves the
// shard protocol and the name listings but neither submit endpoint, and a
// front door serves no shard protocol. Each withheld endpoint is the
// mux's 404 envelope.
func TestWorkerMode(t *testing.T) {
	srv := workerServer(t, 1_000_000)

	shard := `{
		"workload": "comd-lite", "seed": 3, "insts": 20000,
		"observer": {"kind": "bpred", "options": {"configs": ["gshare-small"]}}
	}`
	raw, err := json.Marshal(postShard(t, srv.URL, shard))
	if err != nil {
		t.Fatal(err)
	}
	var rec struct {
		Workload string          `json:"workload"`
		Seed     uint64          `json:"seed"`
		Observer string          `json:"observer"`
		Insts    int64           `json:"insts"`
		Result   json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal(raw, &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Workload != "comd-lite" || rec.Seed != 3 || rec.Observer != "bpred/gshare-small" {
		t.Errorf("shard record identity %+v", rec)
	}
	if rec.Insts < 20000 || len(rec.Result) == 0 {
		t.Errorf("shard record incomplete: insts=%d, %d result bytes", rec.Insts, len(rec.Result))
	}

	// An invalid shard spec is an "invalid" member record the dispatcher
	// will not retry; its array still answers 200.
	for _, bad := range []string{
		`{"workload": "no-such", "seed": 1, "insts": 1000, "observer": {"kind": "bbl"}}`,
		`{"workload": "comd-lite", "seed": 1, "insts": 1000, "observer": {"kind": "bpred"}}`, // expands to 9 configs
		`{"workload": "comd-lite", "seed": 1, "insts": 1000, "engine": "reference", "observer": {"kind": "bbl"}}`,
	} {
		if rec := postShard(t, srv.URL, bad); string(rec["invalid"]) != "true" || len(rec["error"]) == 0 || len(rec) != 2 {
			t.Errorf("invalid member %s answered %v, want an {error, invalid: true} record", bad, rec)
		}
	}
	// A body that is not an array of shard specs — the retired lone object
	// included — or that asks for more than -max-insts is a 400 for the
	// request.
	for _, bad := range []string{`{`, `[{]`, shard,
		`[{"workload": "comd-lite", "seed": 1, "insts": 5000000, "observer": {"kind": "bbl"}}]`,
	} {
		decodeEnvelope(t, doReq(t, http.MethodPost, srv.URL+"/v1/shards", bad), http.StatusBadRequest)
	}

	spec := `{"workloads":["comd-lite"],"insts":1000,"observers":[{"kind":"bbl"}]}`
	for _, path := range []string{"/v1/runs", "/v1/sweeps"} {
		decodeEnvelope(t, doReq(t, http.MethodPost, srv.URL+path, spec), http.StatusNotFound)
	}
	decodeEnvelope(t, doReq(t, http.MethodPost, testServer(t).URL+"/v1/shards", "["+shard+"]"), http.StatusNotFound)
}

// TestGracefulShutdown is the satellite regression test: once the signal
// context fires, serve must drain the in-flight run to a complete 200
// response, stop accepting new connections, and return.
func TestGracefulShutdown(t *testing.T) {
	sess := sim.NewSession(1)
	inner := newServer(serverConfig{sess: sess, coord: newCoord(t, sweep.Options{Run: sess.Run})})
	started := make(chan struct{})
	var once sync.Once
	handler := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/runs" {
			once.Do(func() { close(started) })
		}
		inner.ServeHTTP(w, r)
	})

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	srv := &http.Server{Handler: handler}
	served := make(chan error, 1)
	go func() { served <- serve(ctx, srv, ln, 30*time.Second) }()

	// A run long enough to still be in flight when shutdown starts.
	spec := `{"workloads": ["comd-lite"], "seed_count": 1, "insts": 8000000,
		"observers": [{"kind": "bpred", "options": {"configs": ["gshare-small"]}}]}`
	type postResult struct {
		status int
		body   []byte
		err    error
	}
	posted := make(chan postResult, 1)
	go func() {
		resp, err := http.Post("http://"+ln.Addr().String()+"/v1/runs", "application/json", strings.NewReader(spec))
		if err != nil {
			posted <- postResult{err: err}
			return
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			posted <- postResult{err: err}
			return
		}
		posted <- postResult{status: resp.StatusCode, body: body}
	}()

	// Trigger shutdown only once the run is definitely in flight.
	<-started
	cancel()

	res := <-posted
	if res.err != nil {
		t.Fatalf("in-flight run was not drained: %v", res.err)
	}
	if res.status != http.StatusOK {
		t.Fatalf("in-flight run: status %d, body %s", res.status, res.body)
	}
	var rep struct {
		Schema string `json:"schema"`
	}
	if err := json.Unmarshal(res.body, &rep); err != nil || rep.Schema != sim.SchemaV1 {
		t.Fatalf("drained response is not a complete report: %v (schema %q)", err, rep.Schema)
	}

	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("serve returned %v after drain", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("serve did not return after drain")
	}

	// The listener is closed: new connections must fail.
	if _, err := http.Get("http://" + ln.Addr().String() + "/healthz"); err == nil {
		t.Error("server still accepting connections after shutdown")
	}
}

func TestRunRejectsBadSpecs(t *testing.T) {
	srv := testServer(t)
	cases := []struct {
		name string
		body string
	}{
		{"malformed json", `{"workloads": [`},
		{"unknown field", `{"workloadz": ["comd-lite"]}`},
		{"no workloads", `{"workloads": [], "insts": 1000, "observers": [{"kind": "bbl"}]}`},
		{"duplicate workload", `{"workloads": ["comd-lite", "comd-lite"], "insts": 1000, "observers": [{"kind": "bbl"}]}`},
		{"unknown workload", `{"workloads": ["no-such"], "insts": 1000, "observers": [{"kind": "bbl"}]}`},
		{"unknown observer", `{"workloads": ["comd-lite"], "insts": 1000, "observers": [{"kind": "no-such"}]}`},
		{"reference engine", `{"workloads": ["comd-lite"], "insts": 1000, "engine": "reference", "observers": [{"kind": "bbl"}]}`},
		{"budget over server limit", `{"workloads": ["comd-lite"], "insts": 100000000, "observers": [{"kind": "bbl"}]}`},
		{"seed_count over shard limit", `{"workloads": ["comd-lite"], "seed_count": 1000000000, "insts": 1000, "observers": [{"kind": "bbl"}]}`},
		{"grid over shard limit", `{"workloads": ["comd-lite", "xalan-lite"], "seed_count": 200, "insts": 1000, "observers": [{"kind": "bbl"}]}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			decodeEnvelope(t, doReq(t, http.MethodPost, srv.URL+"/v1/runs", tc.body), http.StatusBadRequest)
		})
	}
}

// TestOversizeSpecBodyIs413: a spec body over the 1 MiB request limit is
// a 413 naming the limit on both submit endpoints, as it is on the
// worker's (dispatch's TestWorkerOversizeBodyIs413). The spec itself is
// valid: only its trailing whitespace is too much.
func TestOversizeSpecBodyIs413(t *testing.T) {
	srv := testServer(t)
	body := `{"workloads": ["comd-lite"], "insts": 1000, "observers": [{"kind": "bbl"}]}` + strings.Repeat(" ", 1<<20)
	for _, path := range []string{"/v1/runs", "/v1/sweeps"} {
		env := decodeEnvelope(t, doReq(t, http.MethodPost, srv.URL+path, body), http.StatusRequestEntityTooLarge)
		if !strings.Contains(env.Error, "1048576-byte") {
			t.Errorf("POST %s answered %q, want the 1048576-byte limit named", path, env.Error)
		}
	}
}

// TestRunRefusesToStart: each startup conflict — a -worker given any flag
// only a front door reads among them, and a -max-shards that bounds
// nothing or whose budget overflows — and a -backends list that does not parse, is run's error
// before anything listens; a flag that is gone is the flag package's. The address does not
// parse either, so a refusal that went missing fails at Listen with
// another message instead of serving; the last row is a -worker given only
// flags it reads, which gets that far.
func TestRunRefusesToStart(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-worker", "-backends", "http://127.0.0.1:1"}, "-worker does not take -backends"},
		{[]string{"-worker", "-hedge"}, "-worker does not take -hedge"},
		{[]string{"-worker", "-max-shards", "4096"}, "-worker does not take -max-shards"},
		{[]string{"-worker", "-queue-depth", "64"}, "flag provided but not defined: -queue-depth"},
		{[]string{"-max-shards", "0"}, "-max-shards must be at least 1"},
		{[]string{"-max-shards", strconv.Itoa(math.MaxInt/8 + 1)}, "budget overflows an int"},
		{[]string{"-max-running", "2"}, "flag provided but not defined: -max-running"},
		{[]string{"-worker", "-max-running", "2"}, "flag provided but not defined: -max-running"},
		{[]string{"-worker", "-retain", "15m"}, "-worker does not take -retain"},
		{[]string{"-hedge"}, "-hedge needs -backends"},
		{[]string{"-cache-entries", "0", "-cache-dir", t.TempDir()}, "-cache-dir needs -cache-entries"},
		{[]string{"-backends", "127.0.0.1:1"}, "is not an http(s) URL"},
		{[]string{"-worker", "-workers", "1", "-max-insts", "1000", "-cache-entries", "0"}, "missing port in address"},
	} {
		var stderr strings.Builder
		err := run(append([]string{"-addr", "no-port"}, tc.args...), &stderr)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("run(%v) = %v, want an error naming %q", tc.args, err, tc.want)
		}
		if strings.Contains(stderr.String(), "listening") {
			t.Errorf("run(%v) listened: %s", tc.args, stderr.String())
		}
	}
}

// TestHugeGeometriesAreRejected: a BTB too big to allocate and an I-cache
// size_kb that overflows to 1 KB are a 400 envelope on the coordinator's run
// and sweep endpoints and an invalid member on a worker's — never a run that
// takes the process down or simulates the wrong cache.
func TestHugeGeometriesAreRejected(t *testing.T) {
	srv, worker := testServer(t), workerServer(t, 1_000_000)
	for _, obs := range []string{
		`{"kind":"btb","options":{"geometries":[{"entries":1099511627776,"ways":1}]}}`,
		`{"kind":"icache","options":{"geometries":[{"size_kb":18014398509481985,"ways":1}]}}`,
	} {
		spec := `{"workloads":["comd-lite"],"insts":1000,"observers":[` + obs + `]}`
		decodeEnvelope(t, doReq(t, http.MethodPost, srv.URL+"/v1/runs", spec), http.StatusBadRequest)
		decodeEnvelope(t, doReq(t, http.MethodPost, srv.URL+"/v1/sweeps?tenant=a", spec), http.StatusBadRequest)
		shard := `{"workload":"comd-lite","seed":1,"insts":1000,"observer":` + obs + `}`
		if rec := postShard(t, worker.URL, shard); string(rec["invalid"]) != "true" {
			t.Errorf("worker answered %s with %v, want an invalid member", obs, rec)
		}
	}
}

// TestSynthEndpointAndRun covers the synthetic-workload surface: the
// grammar endpoint serves the canonical defaults, a front door runs an
// inline scenario, and a worker executes a synth shard from its wire
// bytes.
func TestSynthEndpointAndRun(t *testing.T) {
	srv := testServer(t)

	var g struct {
		Version  string       `json:"version"`
		Defaults synth.Params `json:"defaults"`
	}
	getJSON(t, srv.URL+"/v1/synth", &g)
	if g.Version != synth.Version {
		t.Errorf("/v1/synth version = %q, want %q", g.Version, synth.Version)
	}
	if g.Defaults.BlockLen == 0 || g.Defaults.Dispatch == "" {
		t.Errorf("/v1/synth defaults not canonical: %+v", g.Defaults)
	}

	spec := `{
		"workloads": ["synth-smoke"],
		"synth": [{"name": "synth-smoke", "hot_frac": 0.5}],
		"seed_count": 1,
		"insts": 20000,
		"observers": [{"kind": "branch-mix"}, {"kind": "bias"}]
	}`
	resp, err := http.Post(srv.URL+"/v1/runs", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("synth run: status %d: %s", resp.StatusCode, body)
	}
	var rep struct {
		Schema string `json:"schema"`
		Spec   struct {
			Synth []synth.Params `json:"synth"`
		} `json:"spec"`
		Shards []struct {
			Workload string          `json:"workload"`
			Insts    int64           `json:"insts"`
			Result   json.RawMessage `json:"result"`
		} `json:"shards"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	if rep.Schema != sim.SchemaV1 || len(rep.Shards) != 2 {
		t.Fatalf("synth run report: schema %q, %d shards", rep.Schema, len(rep.Shards))
	}
	if len(rep.Spec.Synth) != 1 || rep.Spec.Synth[0].BlockLen == 0 {
		t.Errorf("echoed spec does not carry canonical synth params: %+v", rep.Spec.Synth)
	}
	for _, sh := range rep.Shards {
		if sh.Workload != "synth-smoke" || sh.Insts < 20000 || len(sh.Result) == 0 {
			t.Errorf("synth shard incomplete: %+v", sh)
		}
	}

	// Bad knobs are client errors on the same path.
	resp2, err := http.Post(srv.URL+"/v1/runs", "application/json", strings.NewReader(
		`{"workloads":["s"],"synth":[{"name":"s","bias":0.2}],"seed_count":1,"insts":1000,"observers":[{"kind":"bbl"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Errorf("bad synth knob: status %d, want 400", resp2.StatusCode)
	}

	// The worker half: a synth ShardSpec posted to /v1/shards executes
	// from its wire bytes alone.
	shardSpec := `{
		"workload": "synth-smoke",
		"synth": {"name": "synth-smoke", "hot_frac": 0.5},
		"seed": 1,
		"insts": 10000,
		"observer": {"kind": "bias"}
	}`
	body, err := json.Marshal(postShard(t, workerServer(t, 1_000_000).URL, shardSpec))
	if err != nil {
		t.Fatal(err)
	}
	var shard struct {
		Workload string `json:"workload"`
		Insts    int64  `json:"insts"`
	}
	if err := json.Unmarshal(body, &shard); err != nil {
		t.Fatal(err)
	}
	if shard.Workload != "synth-smoke" || shard.Insts < 10000 {
		t.Errorf("worker synth shard: %+v", shard)
	}
}

// TestRunAllowPartialRoundTrip: a spec carrying allow_partial decodes,
// runs, and echoes the flag in the report's normalized spec — the wire
// contract front-ends rely on when requesting degradable sweeps. A clean
// run must still carry no failed_shards key.
func TestRunAllowPartialRoundTrip(t *testing.T) {
	srv := testServer(t)
	spec := `{
		"workloads": ["comd-lite"],
		"seed_count": 1,
		"insts": 20000,
		"observers": [{"kind": "bbl"}],
		"allow_partial": true
	}`
	resp, err := http.Post(srv.URL+"/v1/runs", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/runs: status %d", resp.StatusCode)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Spec struct {
			AllowPartial bool `json:"allow_partial"`
		} `json:"spec"`
	}
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatal(err)
	}
	if !rep.Spec.AllowPartial {
		t.Error("report spec does not echo allow_partial")
	}
	if strings.Contains(string(raw), "failed_shards") {
		t.Error("clean run leaks a failed_shards key")
	}
}

// partialCoordinator stands up a coordinator whose dispatcher is built
// exactly as main builds it for -backends, over one healthy worker and
// one that permanently rejects every shard (400: not retried, not blamed,
// so it keeps being picked). The healthy worker holds its first shard
// until the rejecting one has been hit, so a grid of two or more shards
// is guaranteed both a survivor and a casualty.
func partialCoordinator(t *testing.T) *httptest.Server {
	t.Helper()
	rejected := make(chan struct{})
	var once sync.Once
	bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		once.Do(func() { close(rejected) })
		wire.WriteError(w, http.StatusBadRequest, errors.New("scripted permanent rejection"))
	}))
	t.Cleanup(bad.Close)
	worker := dispatch.WorkerHandler(sim.NewSession(2), 0)
	healthy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-rejected:
		case <-time.After(10 * time.Second):
		}
		worker.ServeHTTP(w, r)
	}))
	t.Cleanup(healthy.Close)
	return dispatchingFrontDoor(t, healthy.URL+","+bad.URL)
}

// dispatchingFrontDoor stands up a front door whose dispatcher is built
// exactly as main builds it for -backends over the comma-separated URLs.
func dispatchingFrontDoor(t *testing.T, urls string) *httptest.Server {
	t.Helper()
	backends, err := dispatch.ParseBackends(urls, dispatch.DefaultClient(2))
	if err != nil {
		t.Fatal(err)
	}
	d, err := dispatch.New(backends, dispatch.Options{MaxInFlight: 2})
	if err != nil {
		t.Fatal(err)
	}
	sess := sim.NewSession(2)
	sess.SetRunner(d)
	srv := httptest.NewServer(newServer(serverConfig{sess: sess, maxInsts: 1_000_000,
		coord: newCoord(t, sweep.Options{Run: sess.Run}), dispatcher: d}))
	t.Cleanup(srv.Close)
	return srv
}

// TestWorkerRejectionIs400Everywhere: a sweep that fails with
// sim.ErrInvalidSpec gets one answer on both endpoints that serve its
// outcome. A worker whose -max-insts is below the front door's rejects
// every unit with a 400, which the dispatcher maps to ErrInvalidSpec and
// does not retry: POST /v1/runs and GET /v1/sweeps/{id}/result both
// answer 400.
func TestWorkerRejectionIs400Everywhere(t *testing.T) {
	srv := dispatchingFrontDoor(t, workerServer(t, 1000).URL)
	const spec = `{"workloads": ["comd-lite"], "insts": 5000, "observers": [{"kind": "bbl"}]}`
	decodeEnvelope(t, doReq(t, http.MethodPost, srv.URL+"/v1/runs", spec), http.StatusBadRequest)
	id := submitSweep(t, srv.URL, "a", spec)
	if st := pollSweep(t, srv.URL, id); st.State != sweep.StateFailed {
		t.Fatalf("sweep landed %s, want failed", st.State)
	}
	decodeEnvelope(t, doReq(t, http.MethodGet, srv.URL+"/v1/sweeps/"+id+"/result", ""), http.StatusBadRequest)
}

// TestDispatchedRunHonoursAllowPartial: the abort-vs-degrade policy lives
// in the spec alone, so a coordinator dispatching to -backends degrades a
// request that asks for it — on the synchronous and the async surface —
// into a 200 report whose shards and failed_shards partition the grid.
func TestDispatchedRunHonoursAllowPartial(t *testing.T) {
	const spec = `{
		"workloads": ["comd-lite"],
		"seed_count": 4,
		"insts": 20000,
		"observers": [{"kind": "bbl"}],
		"allow_partial": true
	}`
	check := func(t *testing.T, resp *http.Response) {
		t.Helper()
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s; a dispatched run must honour the spec's allow_partial", resp.StatusCode, raw)
		}
		rep, err := sim.DecodeReport(raw)
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Shards) == 0 || len(rep.FailedShards) == 0 {
			t.Fatalf("%d shards, %d failed_shards; want a degraded report with both", len(rep.Shards), len(rep.FailedShards))
		}
		seen := map[uint64]bool{}
		for _, sh := range rep.Shards {
			seen[sh.Seed] = true
		}
		for _, f := range rep.FailedShards {
			if seen[f.Seed] {
				t.Errorf("seed %d is both a shard and a failed shard", f.Seed)
			}
			seen[f.Seed] = true
			if !strings.Contains(f.Error, "scripted permanent rejection") {
				t.Errorf("failed shard %+v does not carry the worker's answer", f)
			}
		}
		if len(seen) != 4 || len(rep.Shards)+len(rep.FailedShards) != 4 {
			t.Errorf("shards + failed_shards cover seeds %v; want a partition of the 4-shard grid", seen)
		}
	}
	t.Run("runs", func(t *testing.T) {
		srv := partialCoordinator(t)
		check(t, doReq(t, http.MethodPost, srv.URL+"/v1/runs", spec))
	})
	t.Run("sweeps", func(t *testing.T) {
		srv := partialCoordinator(t)
		resp := doReq(t, http.MethodPost, srv.URL+"/v1/sweeps?tenant=alice", spec)
		var st struct {
			ID string `json:"id"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil || resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit: status %d, decode %v", resp.StatusCode, err)
		}
		resp.Body.Close()
		if final := pollSweep(t, srv.URL, st.ID); final.State != sweep.StateDone {
			t.Fatalf("sweep landed %s: %s", final.State, final.Error)
		}
		check(t, doReq(t, http.MethodGet, srv.URL+"/v1/sweeps/"+st.ID+"/result", ""))
	})
}
