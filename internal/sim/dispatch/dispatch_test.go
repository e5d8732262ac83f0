package dispatch_test

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rebalance/internal/clock"
	"rebalance/internal/sim"
	"rebalance/internal/sim/dispatch"
)

// testSpec returns a small runnable shard spec.
func testSpec(seed uint64) sim.ShardSpec {
	return sim.ShardSpec{
		Workload: "comd-lite",
		Seed:     seed,
		Insts:    5_000,
		Observer: sim.ObserverSpec{Kind: "bbl"},
	}
}

// eachShard is the test backends' one bridge to the unit protocol: a unit's
// members run one by one through a per-shard body, under the Backend
// contract (one outcome per spec; the error is only ever ctx's).
func eachShard(ctx context.Context, specs []sim.ShardSpec, run func(context.Context, sim.ShardSpec) (sim.Shard, error)) ([]sim.Outcome, error) {
	out := make([]sim.Outcome, len(specs))
	for i := range specs {
		out[i].Shard, out[i].Err = run(ctx, specs[i])
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// runShards flattens d.RunShards to the shape most tests want: the shards
// and the run's error, or else the first failed outcome's.
func runShards(ctx context.Context, d *dispatch.Dispatcher, specs []sim.ShardSpec) ([]sim.Shard, error) {
	out, err := d.RunShards(ctx, specs)
	if err != nil {
		return nil, err
	}
	shards := make([]sim.Shard, len(out))
	for i := range out {
		shards[i] = out[i].Shard
		if err == nil {
			err = out[i].Err
		}
	}
	return shards, err
}

// onVirtualTime returns dispatcher options on a virtual clock that jumps to
// each timer as it is armed: the production backoffs and hedge delays run
// in full, in no wall time, while attempt deadlines and revival cooldowns
// move only when the test advances the clock (opts.Clock.(*clock.Virtual)).
// One backend call is in flight at a time: a session hands the dispatcher
// every unit of its grid at once, and a hung call's clock advance must not
// time out a concurrent call's attempt.
func onVirtualTime() dispatch.Options {
	v := clock.NewVirtual()
	v.Auto = true
	return dispatch.Options{MaxInFlight: 1, Clock: v}
}

// attemptDeadline is the production bound on one backend call carrying n
// members of testSpec's budget.
func attemptDeadline(n int) time.Duration {
	return dispatch.AttemptBase + time.Duration(int64(n)*testSpec(0).Insts)*dispatch.AttemptPerInst
}

// goldenSpec is the exact Spec the sim package's golden-file test runs, as
// the JSON a remote client would send.
const goldenSpec = `{
	"workloads": ["comd-lite", "xalan-lite"],
	"seeds": [1, 2],
	"insts": 40000,
	"observers": [
		{"kind": "bpred", "options": {"configs": ["gshare-small", "tage-small"]}},
		{"kind": "btb", "options": {"geometries": [{"entries": 512, "ways": 4}]}},
		{"kind": "icache", "options": {"geometries": [{"size_kb": 16, "line_bytes": 64, "ways": 4}]}},
		{"kind": "branch-mix"},
		{"kind": "bias"},
		{"kind": "footprint"},
		{"kind": "bbl"}
	]
}`

// newWorker stands up one in-process simd worker: the same WorkerHandler
// cmd/simd mounts, over its own session (its own compile cache), so every
// worker re-derives everything from the wire bytes alone.
func newWorker(t testing.TB) *httptest.Server {
	t.Helper()
	return newWorkerServer(t, sim.NewSession(2))
}

// newWorkerServer is newWorker over the caller's session.
func newWorkerServer(t testing.TB, sess *sim.Session) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(dispatch.WorkerHandler(sess, 0))
	t.Cleanup(srv.Close)
	return srv
}

// withInFlight is opts with n slots.
func withInFlight(opts dispatch.Options, n int) dispatch.Options {
	opts.MaxInFlight = n
	return opts
}

// runGoldenDispatched runs the golden spec through a Session routed over
// the given backends, with as many workers as opts has slots (see
// runGolden).
func runGoldenDispatched(t *testing.T, backends []dispatch.Backend, opts dispatch.Options) []byte {
	t.Helper()
	d, err := dispatch.New(backends, opts)
	if err != nil {
		t.Fatal(err)
	}
	sess := sim.NewSession(opts.MaxInFlight)
	sess.SetRunner(d)
	return runGolden(t, sess)
}

// runGolden runs the golden spec on sess and renders the report exactly as
// the golden file does (timing and worker-count fields zeroed).
func runGolden(t *testing.T, sess *sim.Session) []byte {
	t.Helper()
	spec, err := sim.DecodeSpec([]byte(goldenSpec))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sess.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.MarshalIndent(rep.Stripped(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(got, '\n')
}

func readGolden(t *testing.T) []byte {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("..", "testdata", "report_v1.golden.json"))
	if err != nil {
		t.Fatalf("%v (generate with `go test ./internal/sim -run TestReportGolden -update`)", err)
	}
	return want
}

// TestTwoWorkersMatchGolden is the acceptance check: a run split across
// two simd worker processes produces a sim/v1 report byte-identical to
// the same Spec run all-local (the golden file is generated by the
// all-local path in the sim package's tests).
func TestTwoWorkersMatchGolden(t *testing.T) {
	w1, w2 := newWorker(t), newWorker(t)
	got := runGoldenDispatched(t, []dispatch.Backend{
		dispatch.NewHTTPBackend(w1.URL, nil),
		dispatch.NewHTTPBackend(w2.URL, nil),
	}, dispatch.Options{MaxInFlight: 4})
	if want := readGolden(t); string(got) != string(want) {
		t.Errorf("report dispatched across 2 workers differs from the all-local golden;\ngot:\n%s", got)
	}
}

// TestMixedLocalAndRemoteMatchGolden checks a LocalBackend and an HTTP
// worker interleave into the same bit-identical report.
func TestMixedLocalAndRemoteMatchGolden(t *testing.T) {
	w := newWorker(t)
	got := runGoldenDispatched(t, []dispatch.Backend{
		&dispatch.LocalBackend{Sess: sim.NewSession(2)},
		dispatch.NewHTTPBackend(w.URL, nil),
	}, dispatch.Options{MaxInFlight: 4})
	if want := readGolden(t); string(got) != string(want) {
		t.Errorf("report dispatched across local+remote differs from the all-local golden;\ngot:\n%s", got)
	}
}

// TestFailoverMatchesGolden is the acceptance failover check: one of the
// two workers dies mid-run (it serves one of the grid's four units, then
// aborts every connection), and the run must still complete via the
// surviving worker with the identical report.
func TestFailoverMatchesGolden(t *testing.T) {
	healthy := newWorker(t)

	inner := dispatch.WorkerHandler(sim.NewSession(2), 0)
	var served atomic.Int64
	dying := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if served.Add(1) > 1 {
			// Sever the connection mid-request: the coordinator sees a
			// transport error, exactly as if the worker process was
			// killed.
			panic(http.ErrAbortHandler)
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(dying.Close)

	// One call in flight: every unit's first call goes to the dying worker
	// (ties break by slice order), so its second request — the kill — comes
	// whatever the scheduler does.
	got := runGoldenDispatched(t, []dispatch.Backend{
		dispatch.NewHTTPBackend(dying.URL, nil),
		dispatch.NewHTTPBackend(healthy.URL, nil),
	}, onVirtualTime())
	if want := readGolden(t); string(got) != string(want) {
		t.Errorf("report after mid-run worker death differs from the all-local golden;\ngot:\n%s", got)
	}
	if n := served.Load(); n <= 1 {
		t.Fatalf("dying worker served only %d requests; the kill never triggered", n)
	}
}

// TestGroupedRemote runs a grouped bpred shard through a worker and checks
// the decoded group result matches the same shard run locally — covering
// the GroupResult wire path.
func TestGroupedRemote(t *testing.T) {
	spec := sim.ShardSpec{
		Workload: "xalan-lite",
		Seed:     7,
		Insts:    30_000,
		Observer: sim.ObserverSpec{
			Kind:    "bpred",
			Options: json.RawMessage(`{"configs":["gshare-small","tage-small","L-tournament-small"],"grouped":true}`),
		},
	}
	local, err := sim.NewSession(1).RunShard(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	w := newWorker(t)
	remote, err := dispatch.NewHTTPBackend(w.URL, nil).RunShard(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	le, err1 := local.Result.AppendJSON(nil)
	re, err2 := remote.Result.AppendJSON(nil)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if string(le) != string(re) {
		t.Errorf("remote grouped result differs:\nlocal:  %s\nremote: %s", le, re)
	}
	if local.Insts != remote.Insts {
		t.Errorf("emitted insts differ: local %d, remote %d", local.Insts, remote.Insts)
	}
}

// TestDispatcherConcurrentRunShards drives one dispatcher from several
// goroutines, as a serving coordinator would, checking shared health
// state stays consistent under the race detector.
func TestDispatcherConcurrentRunShards(t *testing.T) {
	w := newWorker(t)
	d, err := dispatch.New([]dispatch.Backend{
		dispatch.NewHTTPBackend(w.URL, nil),
		&dispatch.LocalBackend{Sess: sim.NewSession(1)},
	}, dispatch.Options{MaxInFlight: 4})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			specs := []sim.ShardSpec{testSpec(uint64(g + 1)), testSpec(uint64(g + 100))}
			shards, err := runShards(context.Background(), d, specs)
			if err == nil && len(shards) != 2 {
				err = fmt.Errorf("got %d shards", len(shards))
			}
			errs[g] = err
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Errorf("concurrent run %d: %v", g, err)
		}
	}
}

func TestParseBackends(t *testing.T) {
	good, err := dispatch.ParseBackends("http://a:1, http://b:2/", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(good) != 2 || good[0].Name() != "http://a:1" || good[1].Name() != "http://b:2" {
		t.Errorf("parsed %v, %v", good[0].Name(), good[1].Name())
	}
	for _, bad := range []string{"", "http://a,", "http://a,http://a", "ftp://a", "a:1"} {
		if _, err := dispatch.ParseBackends(bad, nil); err == nil {
			t.Errorf("ParseBackends(%q) accepted", bad)
		}
	}
}
