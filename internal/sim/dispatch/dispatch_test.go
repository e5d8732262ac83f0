package dispatch_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
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

// fakeBackend scripts a Backend: failures before the first success, an
// optional permanent error, an optional block-until-cancel.
type fakeBackend struct {
	name      string
	failFirst int // fail this many calls before succeeding
	permErr   error
	block     bool // block until ctx is cancelled
	// blocked, when set, is handed the context of the first call that
	// blocks (later ones are dropped).
	blocked chan context.Context
	// clk, when set, stamps every call's instant into at.
	clk clock.Clock

	calls atomic.Int64
	mu    sync.Mutex
	at    []time.Time
}

func (f *fakeBackend) Name() string { return f.name }

func (f *fakeBackend) Probe(context.Context) error { return nil }

func (f *fakeBackend) RunShards(ctx context.Context, specs []sim.ShardSpec) ([]sim.Outcome, error) {
	return eachShard(ctx, specs, f.runShard)
}

// stamps returns the instant of every call so far, on clk.
func (f *fakeBackend) stamps() []time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]time.Time(nil), f.at...)
}

func (f *fakeBackend) runShard(ctx context.Context, spec sim.ShardSpec) (sim.Shard, error) {
	n := f.calls.Add(1)
	if f.clk != nil {
		f.mu.Lock()
		f.at = append(f.at, f.clk.Now())
		f.mu.Unlock()
	}
	if f.block {
		select {
		case f.blocked <- ctx:
		default:
		}
		<-ctx.Done()
		return sim.Shard{}, ctx.Err()
	}
	if f.permErr != nil {
		return sim.Shard{}, f.permErr
	}
	if n <= int64(f.failFirst) {
		return sim.Shard{}, fmt.Errorf("%s: scripted failure %d", f.name, n)
	}
	return sim.Shard{Workload: spec.Workload, Seed: spec.Seed, Observer: "bbl", Insts: spec.Insts}, nil
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

func TestRetrySameBackend(t *testing.T) {
	// A transiently failing sole backend: the per-shard retry budget
	// absorbs the failures.
	b := &fakeBackend{name: "flaky", failFirst: 2}
	d, err := dispatch.New([]dispatch.Backend{b}, onVirtualTime())
	if err != nil {
		t.Fatal(err)
	}
	shards, err := runShards(context.Background(), d, []sim.ShardSpec{testSpec(1)})
	if err != nil {
		t.Fatal(err)
	}
	if len(shards) != 1 || shards[0].Seed != 1 {
		t.Fatalf("shards = %+v", shards)
	}
	if got := b.calls.Load(); got != 3 {
		t.Errorf("backend saw %d calls, want 3", got)
	}
}

func TestFailoverToLiveBackend(t *testing.T) {
	dead := &fakeBackend{name: "dead", permErr: errors.New("connection refused")}
	live := &fakeBackend{name: "live"}
	opts := onVirtualTime()
	opts.MaxInFlight = 1
	d, err := dispatch.New([]dispatch.Backend{dead, live}, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Eight one-shard units, one after another, so the dead backend's call
	// count is exact.
	for seed := uint64(1); seed <= 8; seed++ {
		sh, err := sim.RunOne(context.Background(), d, testSpec(seed))
		if err != nil {
			t.Fatal(err)
		}
		if sh.Seed != seed {
			t.Errorf("unit of seed %d answered seed %d", seed, sh.Seed)
		}
	}
	// The dead backend is marked dead after FailThreshold consecutive
	// failures and stops receiving work.
	if healthy := d.Healthy(); len(healthy) != 1 || healthy[0] != "live" {
		t.Errorf("healthy = %v, want [live]", healthy)
	}
	if got := dead.calls.Load(); got > 3 {
		t.Errorf("dead backend kept receiving shards: %d calls", got)
	}
}

func TestAllBackendsDead(t *testing.T) {
	a := &fakeBackend{name: "a", permErr: errors.New("boom")}
	b := &fakeBackend{name: "b", permErr: errors.New("boom")}
	d, err := dispatch.New([]dispatch.Backend{a, b}, onVirtualTime())
	if err != nil {
		t.Fatal(err)
	}
	_, err = runShards(context.Background(), d, []sim.ShardSpec{testSpec(1), testSpec(2)})
	if err == nil {
		t.Fatal("want error when every backend is dead")
	}
	if !strings.Contains(err.Error(), "boom") {
		t.Errorf("error does not surface the backend failure: %v", err)
	}
}

func TestInvalidSpecNotRetried(t *testing.T) {
	b := &fakeBackend{name: "a", permErr: fmt.Errorf("%w: bad shard", sim.ErrInvalidSpec)}
	d, err := dispatch.New([]dispatch.Backend{b}, onVirtualTime())
	if err != nil {
		t.Fatal(err)
	}
	_, err = runShards(context.Background(), d, []sim.ShardSpec{testSpec(1)})
	if !errors.Is(err, sim.ErrInvalidSpec) {
		t.Fatalf("want ErrInvalidSpec, got %v", err)
	}
	if got := b.calls.Load(); got != 1 {
		t.Errorf("invalid spec was retried: %d calls", got)
	}
}

// cancelOnBlock cancels the returned context once b has blocked a call.
func cancelOnBlock(b *fakeBackend) context.Context {
	b.blocked = make(chan context.Context, 1)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		<-b.blocked
		cancel()
	}()
	return ctx
}

// TestCancellationReleasesWorkers is the satellite leak check for the
// dispatcher: cancelling mid-run returns promptly and leaves no
// dispatcher goroutines behind.
func TestCancellationReleasesWorkers(t *testing.T) {
	blocker := &fakeBackend{name: "blocker", block: true}
	opts := onVirtualTime()
	opts.MaxInFlight = 4
	d, err := dispatch.New([]dispatch.Backend{blocker}, opts)
	if err != nil {
		t.Fatal(err)
	}
	specs := make([]sim.ShardSpec, 16)
	for i := range specs {
		specs[i] = testSpec(uint64(i + 1))
	}
	before := runtime.NumGoroutine()
	if _, err = runShards(cancelOnBlock(blocker), d, specs); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	// The cancel is the only way out: the virtual attempt deadline never
	// moves. What is left is the goroutines' exit, which the dispatcher owns.
	eventually(t, "the cancelled dispatch's goroutines exit", func() bool { return runtime.NumGoroutine() <= before })
}

// TestHungBackendFailsOver: a wedged worker (accepts the request, never
// answers) must become a retryable per-attempt timeout, not wedge the
// run — the shard completes on the healthy backend. The deadline is the
// production one, pinned to the nanosecond: a call carrying two members
// is still running at 30 s + 10 ms − 1 ns and timed out at 30 s + 10 ms.
func TestHungBackendFailsOver(t *testing.T) {
	hung := &fakeBackend{name: "hung", block: true, blocked: make(chan context.Context, 1)}
	live := &fakeBackend{name: "live"}
	opts := onVirtualTime()
	v := opts.Clock.(*clock.Virtual)
	d, err := dispatch.New([]dispatch.Backend{hung, live}, opts)
	if err != nil {
		t.Fatal(err)
	}
	type result struct {
		shards []sim.Shard
		err    error
	}
	done := make(chan result, 1)
	go func() {
		shards, err := runShards(context.Background(), d, []sim.ShardSpec{testSpec(1), testSpec(2)})
		done <- result{shards, err}
	}()
	call := <-hung.blocked
	v.Advance(attemptDeadline(2) - time.Nanosecond)
	if err := call.Err(); err != nil {
		t.Fatalf("call ended %v before its deadline", err)
	}
	v.Advance(time.Nanosecond)
	if err := call.Err(); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("call at its deadline: err = %v, want context.DeadlineExceeded", err)
	}
	res := <-done
	if res.err != nil {
		t.Fatal(res.err)
	}
	if len(res.shards) != 2 || res.shards[0].Seed != 1 || res.shards[1].Seed != 2 {
		t.Fatalf("shards = %+v", res.shards)
	}
	if got := live.calls.Load(); got != 2 {
		t.Errorf("live backend ran %d shards, want the failed-over 2", got)
	}
}

// TestCancellationDoesNotMarkBackendsDead: failures caused by a
// cancelled context are not the backend's fault and must leave the
// dispatcher's shared health state untouched.
func TestCancellationDoesNotMarkBackendsDead(t *testing.T) {
	blocker := &fakeBackend{name: "blocker", block: true}
	opts := onVirtualTime()
	opts.MaxInFlight = 4
	d, err := dispatch.New([]dispatch.Backend{blocker}, opts)
	if err != nil {
		t.Fatal(err)
	}
	specs := make([]sim.ShardSpec, 8)
	for i := range specs {
		specs[i] = testSpec(uint64(i + 1))
	}
	if _, err := runShards(cancelOnBlock(blocker), d, specs); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if healthy := d.Healthy(); len(healthy) != 1 {
		t.Errorf("cancelled run marked the backend dead: healthy = %v", healthy)
	}
}

// TestInvalidSpecDoesNotMarkBackendsDead: a worker rejecting unrunnable
// shards is doing its job, not failing.
func TestInvalidSpecDoesNotMarkBackendsDead(t *testing.T) {
	b := &fakeBackend{name: "a", permErr: fmt.Errorf("%w: bad shard", sim.ErrInvalidSpec)}
	d, err := dispatch.New([]dispatch.Backend{b}, onVirtualTime())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := runShards(context.Background(), d, []sim.ShardSpec{testSpec(1)}); !errors.Is(err, sim.ErrInvalidSpec) {
			t.Fatalf("want ErrInvalidSpec, got %v", err)
		}
	}
	if healthy := d.Healthy(); len(healthy) != 1 {
		t.Errorf("invalid specs marked the backend dead: healthy = %v", healthy)
	}
}

// TestDeadBackendRevives: a dead backend is probed (asynchronously, at the
// next pick) once its cooldown has run — not at ReviveAfter − 1 ns after
// its death, and at ReviveAfter — and a successful probe fully revives it:
// a restarted worker rejoins a long-lived coordinator.
func TestDeadBackendRevives(t *testing.T) {
	opts := onVirtualTime()
	opts.MaxInFlight = 1
	v := opts.Clock.(*clock.Virtual)
	flaky := &fakeBackend{name: "flaky", failFirst: dispatch.FailThreshold, clk: v} // dead, then healthy after restart
	steady := &fakeBackend{name: "steady"}
	d, err := dispatch.New([]dispatch.Backend{flaky, steady}, opts)
	if err != nil {
		t.Fatal(err)
	}
	// One-shard units, one after another, so the dead-marking point is
	// exact.
	runOne := func(seed uint64) {
		t.Helper()
		if _, err := sim.RunOne(context.Background(), d, testSpec(seed)); err != nil {
			t.Fatal(err)
		}
	}
	for seed := uint64(1); seed <= 8; seed++ {
		runOne(seed)
	}
	if healthy := d.Healthy(); len(healthy) != 1 || healthy[0] != "steady" {
		t.Fatalf("flaky backend not dead yet: healthy = %v", healthy)
	}
	died := flaky.stamps()[dispatch.FailThreshold-1] // its last scripted failure
	v.Advance(died.Add(dispatch.ReviveAfter - time.Nanosecond).Sub(v.Now()))
	runOne(9)
	if stats := d.Stats(); stats.Probes != 0 {
		t.Fatalf("stats = %+v; probed 1 ns before the cooldown ran", stats)
	}
	v.Advance(time.Nanosecond)
	runOne(10)
	if stats := d.Stats(); stats.Probes != 1 {
		t.Fatalf("stats = %+v; want the one probe at the cooldown's end", stats)
	}
	// The probe's verdict lands on its own goroutine.
	eventually(t, "the probed backend revives", func() bool { return len(d.Healthy()) == 2 })
}

// eventually polls cond until it holds, for a state a goroutine the test
// does not own (a probe's verdict, goroutines winding down) will reach.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%s: never happened", what)
		}
	}
}

// countingBackend records the peak number of concurrent shards in flight.
type countingBackend struct {
	cur, peak atomic.Int64
}

func (c *countingBackend) Name() string { return "counting" }

func (c *countingBackend) Probe(context.Context) error { return nil }

// enterGauge counts one more call in flight and folds the new level into
// peak; the caller decrements cur when the call ends.
func enterGauge(cur, peak *atomic.Int64) {
	n := cur.Add(1)
	for {
		p := peak.Load()
		if n <= p || peak.CompareAndSwap(p, n) {
			break
		}
	}
}

func (c *countingBackend) RunShards(ctx context.Context, specs []sim.ShardSpec) ([]sim.Outcome, error) {
	return eachShard(ctx, specs, c.runShard)
}

func (c *countingBackend) runShard(_ context.Context, spec sim.ShardSpec) (sim.Shard, error) {
	enterGauge(&c.cur, &c.peak)
	runtime.Gosched() // let the other calls in flight enter
	c.cur.Add(-1)
	return sim.Shard{Workload: spec.Workload, Seed: spec.Seed, Observer: "bbl", Insts: spec.Insts}, nil
}

// TestMaxInFlightIsDispatcherWide: concurrent RunShards calls share one
// slot pool instead of multiplying the bound.
func TestMaxInFlightIsDispatcherWide(t *testing.T) {
	cb := &countingBackend{}
	d, err := dispatch.New([]dispatch.Backend{cb}, dispatch.Options{MaxInFlight: 2})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			specs := make([]sim.ShardSpec, 6)
			for i := range specs {
				specs[i] = testSpec(uint64(g*100 + i + 1))
			}
			if _, err := runShards(context.Background(), d, specs); err != nil {
				t.Error(err)
			}
		}(g)
	}
	wg.Wait()
	if p := cb.peak.Load(); p > 2 {
		t.Errorf("saw %d concurrent shards across runs; MaxInFlight 2 must be dispatcher-wide", p)
	}
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
	le, err1 := local.Result.EncodeJSON()
	re, err2 := remote.Result.EncodeJSON()
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
