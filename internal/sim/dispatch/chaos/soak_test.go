package chaos_test

// The chaos soak suite: the golden shard grid is driven through a
// three-backend dispatcher under seeded fault schedules, and the report
// must come out bit-identical to the committed golden file — the same
// bytes an all-local, fault-free run produces. Under permanent (poison)
// faults with AllowPartial, the run must instead return exactly the
// expected surviving shard set, each survivor byte-identical to its
// golden entry, with the abandoned cells enumerated in failed_shards.
//
// The dispatcher runs the production policy (three attempts per member,
// three blamed calls to kill a backend, 15 s revival cooldown) on virtual
// time, one unit at a time and one call in flight: the call index each
// injector draws its faults by then follows from the fault plan alone (a
// transient fault fails whichever unit draws it alike), so every soak is
// one deterministic schedule rather than a scheduler-dependent sample. Hangs
// are not soaked: a hung call waits for its attempt deadline, which virtual
// time reaches only when a test advances it (the dispatch package's
// TestHungBackendFailsOver and TestAttemptTimeout* pin that path).

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"rebalance/internal/clock"
	"rebalance/internal/sim"
	"rebalance/internal/sim/dispatch"
	"rebalance/internal/sim/dispatch/chaos"
	"rebalance/internal/sim/shardcache"
)

// goldenSpec is the exact Spec the sim package's golden-file test runs —
// 2 workloads x 2 seeds x 8 observer configurations = 32 shards.
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

func readGolden(t *testing.T) []byte {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("..", "..", "testdata", "report_v1.golden.json"))
	if err != nil {
		t.Fatalf("%v (generate with `go test ./internal/sim -run TestReportGolden -update`)", err)
	}
	return want
}

// newWorker stands up one in-process simd worker over its own session, so
// every worker re-derives everything from the wire bytes alone.
func newWorker(t *testing.T) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(dispatch.WorkerHandler(sim.NewSession(2), 0))
	t.Cleanup(srv.Close)
	return srv
}

// onVirtualTime is a clock that jumps to each timer as it is armed: the
// production backoffs, hedge delays and the injectors' latency faults run
// in full, in no wall time.
func onVirtualTime() *clock.Virtual {
	v := clock.NewVirtual()
	v.Auto = true
	return v
}

// soakDispatcher is the production dispatcher over backends on clk, with
// one backend call in flight.
func soakDispatcher(t *testing.T, backends []dispatch.Backend, clk clock.Clock, hedge bool) *dispatch.Dispatcher {
	t.Helper()
	d, err := dispatch.New(backends, dispatch.Options{MaxInFlight: 1, Hedge: hedge, Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// oneUnitAtATime hands d a session's units one after another. The session
// gives its runner every unit of the grid at once; a soak needs each unit's
// attempts to be consecutive calls, so that the fault plan, not the
// scheduler, decides how many attempts each unit takes.
type oneUnitAtATime struct {
	mu sync.Mutex
	d  *dispatch.Dispatcher
}

func (o *oneUnitAtATime) RunShards(ctx context.Context, specs []sim.ShardSpec) ([]sim.Outcome, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.d.RunShards(ctx, specs)
}

// runGrid runs the golden spec through a one-worker Session routed over d —
// its four coordinates are four units, sent one after another — with the
// given result cache (nil for none), and normalizes the report's timing
// fields the way the golden file does.
func runGrid(t *testing.T, d *dispatch.Dispatcher, cache *shardcache.Cache, allowPartial bool) *sim.Report {
	t.Helper()
	spec, err := sim.DecodeSpec([]byte(goldenSpec))
	if err != nil {
		t.Fatal(err)
	}
	spec.AllowPartial = allowPartial
	sess := sim.NewSession(1)
	sess.SetCache(cache)
	sess.SetRunner(&oneUnitAtATime{d: d})
	rep, err := sess.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	return rep.Stripped()
}

func render(t *testing.T, rep *sim.Report) []byte {
	t.Helper()
	got, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(got, '\n')
}

// TestSoakBackendFaults is the transient-fault soak at the Backend layer:
// three chaos-wrapped workers under distinct seeded schedules — drops,
// injected 5xx, latency spikes, corrupt/truncated payloads, and a flapping
// backend — and the report must be bit-identical to the golden.
func TestSoakBackendFaults(t *testing.T) {
	scenarios := []struct {
		name  string
		sched func(seed uint64) chaos.Schedule
	}{
		{"drops and 5xx and latency", func(seed uint64) chaos.Schedule {
			return chaos.Schedule{Seed: seed, PDrop: 0.2, P5xx: 0.15,
				PLatency: 0.2, LatencyMinMS: 1, LatencyMaxMS: 10}
		}},
		{"mangled payloads", func(seed uint64) chaos.Schedule {
			return chaos.Schedule{Seed: seed, PDrop: 0.1, PCorrupt: 0.15, PTruncate: 0.15}
		}},
		{"one flapping backend", func(seed uint64) chaos.Schedule {
			s := chaos.Schedule{Seed: seed, PDrop: 0.1}
			if seed%3 == 0 {
				// Every third backend flaps: windows of 3 calls up, 3 down.
				s.FlapPeriod = 3
			}
			return s
		}},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			clk := onVirtualTime()
			var backends []dispatch.Backend
			var injs []*chaos.Injector
			for i := 0; i < 3; i++ {
				w := newWorker(t)
				inj, err := chaos.New(sc.sched(uint64(i+3)), clk)
				if err != nil {
					t.Fatal(err)
				}
				injs = append(injs, inj)
				backends = append(backends, chaos.Wrap(dispatch.NewHTTPBackend(w.URL, nil), inj))
			}
			got := render(t, runGrid(t, soakDispatcher(t, backends, clk, false), nil, false))
			if want := readGolden(t); string(got) != string(want) {
				t.Errorf("report under %q faults differs from the golden;\ngot:\n%s", sc.name, got)
			}
			var calls uint64
			for _, inj := range injs {
				calls += inj.Calls()
			}
			// Four coordinates, one unit each: four calls if nothing failed,
			// and every retry a fault cost on top.
			if calls <= 4 {
				t.Errorf("injectors saw %d calls for 4 units; no fault reached the dispatcher", calls)
			}
		})
	}
}

// TestSoakTransportFaults injects at the wire level instead: the
// RoundTripper under each HTTPBackend synthesizes 503s, drops, latency,
// and — unlike the Backend wrapper — genuinely mangles response bytes, so
// the client's strict decode path is what converts corruption into
// retries. The report must still match the golden bit for bit.
func TestSoakTransportFaults(t *testing.T) {
	clk := onVirtualTime()
	var backends []dispatch.Backend
	for i := 0; i < 3; i++ {
		w := newWorker(t)
		inj, err := chaos.New(chaos.Schedule{
			Seed:  uint64(101 + i), // seeds whose plan the 3-attempt budget absorbs
			PDrop: 0.1, P5xx: 0.1,
			PCorrupt: 0.15, PTruncate: 0.15,
			PLatency: 0.1, LatencyMinMS: 1, LatencyMaxMS: 5,
		}, clk)
		if err != nil {
			t.Fatal(err)
		}
		client := &http.Client{Transport: chaos.WrapTransport(nil, inj)}
		backends = append(backends, dispatch.NewHTTPBackend(w.URL, client))
	}
	got := render(t, runGrid(t, soakDispatcher(t, backends, clk, false), nil, false))
	if want := readGolden(t); string(got) != string(want) {
		t.Errorf("report under transport faults differs from the golden;\ngot:\n%s", got)
	}
}

// goldenShards indexes the golden file's shard entries (compacted) by
// identity, preserving file order.
func goldenShards(t *testing.T) (order []sim.FailedShard, byID map[sim.FailedShard][]byte) {
	t.Helper()
	var g struct {
		Shards []json.RawMessage `json:"shards"`
	}
	if err := json.Unmarshal(readGolden(t), &g); err != nil {
		t.Fatal(err)
	}
	byID = map[sim.FailedShard][]byte{}
	for _, raw := range g.Shards {
		var id struct {
			Workload string `json:"workload"`
			Seed     uint64 `json:"seed"`
			Observer string `json:"observer"`
		}
		if err := json.Unmarshal(raw, &id); err != nil {
			t.Fatal(err)
		}
		key := sim.FailedShard{Workload: id.Workload, Seed: id.Seed, Observer: id.Observer}
		var buf bytes.Buffer
		if err := json.Compact(&buf, raw); err != nil {
			t.Fatal(err)
		}
		order = append(order, key)
		byID[key] = append([]byte(nil), buf.Bytes()...)
	}
	if len(order) != 32 {
		t.Fatalf("golden file has %d shards, want 32", len(order))
	}
	return order, byID
}

// TestSoakPoisonAllowPartial is the permanent-fault soak: every backend
// poisons the {comd-lite, seed 1} grid cells, so those shards fail on
// every attempt everywhere. With AllowPartial the run must return exactly
// the surviving shard set — each survivor byte-identical to its golden
// entry — and enumerate exactly the poisoned cells in failed_shards, with
// the full attempt budget spent on each. Run twice, the degraded report
// must be deterministic.
//
// A poisoned member's call is an ordinary blamed failure, so the schedule
// must not let the poison kill a backend that is healthy for every other
// shard. It does not: the poisoned cells are one coordinate, hence one
// unit, whose three attempts alternate between backends (each retry avoids
// the backend that just failed), so none is blamed three times in a row,
// and each later unit's success resets the backend it ran on.
func TestSoakPoisonAllowPartial(t *testing.T) {
	const attempts = 3 // the dispatcher's per-member budget
	poison := []chaos.PoisonKey{{Workload: "comd-lite", Seed: 1}}
	build := func() *dispatch.Dispatcher {
		clk := onVirtualTime()
		var backends []dispatch.Backend
		for i := 0; i < 3; i++ {
			w := newWorker(t)
			inj, err := chaos.New(chaos.Schedule{Seed: uint64(200 + i), PDrop: 0.02, Poison: poison}, clk)
			if err != nil {
				t.Fatal(err)
			}
			backends = append(backends, chaos.Wrap(dispatch.NewHTTPBackend(w.URL, nil), inj))
		}
		return soakDispatcher(t, backends, clk, false)
	}

	rep := runGrid(t, build(), nil, true)
	order, byID := goldenShards(t)

	// Expected partition: survivors are every golden cell except
	// {comd-lite, seed 1}; the failed list is exactly those cells, in grid
	// order.
	var wantFailed []sim.FailedShard
	var wantSurvive []sim.FailedShard
	for _, id := range order {
		if id.Workload == "comd-lite" && id.Seed == 1 {
			wantFailed = append(wantFailed, id)
		} else {
			wantSurvive = append(wantSurvive, id)
		}
	}
	if len(wantFailed) != 8 {
		t.Fatalf("golden has %d {comd-lite, seed 1} cells, want 8", len(wantFailed))
	}

	if len(rep.FailedShards) != len(wantFailed) {
		t.Fatalf("failed_shards has %d entries, want %d: %+v", len(rep.FailedShards), len(wantFailed), rep.FailedShards)
	}
	for i, f := range rep.FailedShards {
		want := wantFailed[i]
		if f.Workload != want.Workload || f.Seed != want.Seed || f.Observer != want.Observer {
			t.Errorf("failed_shards[%d] = {%s %s seed %d}, want {%s %s seed %d}",
				i, f.Workload, f.Observer, f.Seed, want.Workload, want.Observer, want.Seed)
		}
		if f.Attempts != attempts {
			t.Errorf("failed_shards[%d].Attempts = %d, want the full budget %d", i, f.Attempts, attempts)
		}
		if !strings.Contains(f.Error, "poisoned") {
			t.Errorf("failed_shards[%d].Error = %q, want the poison cause", i, f.Error)
		}
	}

	if len(rep.Shards) != len(wantSurvive) {
		t.Fatalf("report has %d surviving shards, want %d", len(rep.Shards), len(wantSurvive))
	}
	for i := range rep.Shards {
		id := sim.FailedShard{Workload: rep.Shards[i].Workload, Seed: rep.Shards[i].Seed, Observer: rep.Shards[i].Observer}
		want := wantSurvive[i]
		if id != want {
			t.Fatalf("survivor %d is {%s %s seed %d}, want {%s %s seed %d}",
				i, id.Workload, id.Observer, id.Seed, want.Workload, want.Observer, want.Seed)
		}
		enc, err := sim.EncodeShard(rep.Shards[i])
		if err != nil {
			t.Fatal(err)
		}
		if string(enc) != string(byID[id]) {
			t.Errorf("survivor {%s %s seed %d} differs from its golden entry;\ngot:  %s\nwant: %s",
				id.Workload, id.Observer, id.Seed, enc, byID[id])
		}
	}

	// Merged entries for the poisoned workload fold only the surviving
	// seed; the unpoisoned workload keeps both.
	for _, m := range rep.Merged {
		want := 2
		if m.Workload == "comd-lite" {
			want = 1
		}
		if m.Seeds != want {
			t.Errorf("merged {%s %s} folds %d seeds, want %d", m.Workload, m.Observer, m.Seeds, want)
		}
	}

	// The degraded report is itself deterministic up to failure prose: a
	// second run returns identical bytes once the error strings — which
	// embed ephemeral backend URLs and whichever backend happened to be
	// tried last — are blanked.
	blankErrors := func(r *sim.Report) {
		for i := range r.FailedShards {
			r.FailedShards[i].Error = ""
		}
	}
	rep2 := runGrid(t, build(), nil, true)
	blankErrors(rep)
	blankErrors(rep2)
	if first, again := render(t, rep), render(t, rep2); string(first) != string(again) {
		t.Error("two identical partial soaks rendered different reports")
	}
}

// TestSoakCorruptDiskTier attacks the third tier: a dispatched run
// populates the disk directory of the front session's shard cache, every
// entry is then
// deterministically corrupted (bit flips and truncations), and a fresh
// cache over the same directory must degrade every lookup to a
// miss-and-recompute — the rerun report stays bit-identical to the
// golden, with zero disk hits and no failed shards.
func TestSoakCorruptDiskTier(t *testing.T) {
	dir := t.TempDir()
	run := func(c *shardcache.Cache) []byte {
		w1, w2 := newWorker(t), newWorker(t)
		d := soakDispatcher(t, []dispatch.Backend{
			dispatch.NewHTTPBackend(w1.URL, nil),
			dispatch.NewHTTPBackend(w2.URL, nil),
		}, onVirtualTime(), false)
		return render(t, runGrid(t, d, c, false))
	}

	c1, err := shardcache.New(shardcache.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	first := run(c1)
	if want := readGolden(t); string(first) != string(want) {
		t.Fatalf("cold dispatched report differs from the golden;\ngot:\n%s", first)
	}

	n, err := chaos.CorruptDir(dir, 31337)
	if err != nil {
		t.Fatal(err)
	}
	if n < 32 {
		t.Fatalf("corrupted only %d disk entries, want at least the 32 shards", n)
	}

	c2, err := shardcache.New(shardcache.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	second := run(c2)
	if want := readGolden(t); string(second) != string(want) {
		t.Errorf("report over a corrupted disk tier differs from the golden;\ngot:\n%s", second)
	}
	stats := c2.Stats()
	if stats.DiskHits != 0 {
		t.Errorf("corrupted disk tier served %d hits; every entry must degrade to a miss", stats.DiskHits)
	}
	if stats.Misses < 32 {
		t.Errorf("second run recorded %d misses, want at least 32", stats.Misses)
	}
}

// TestSoakHedgedStragglers pairs a straggling backend (frequent latency
// spikes) with a fast one under hedging: the report must match the golden
// bit for bit, hedges must actually fire once a straggler's latency has
// been observed, and the straggler must not be blamed for losing races (it
// stays healthy).
func TestSoakHedgedStragglers(t *testing.T) {
	clk := onVirtualTime()
	slowInj, err := chaos.New(chaos.Schedule{Seed: 400, PLatency: 0.6, LatencyMinMS: 30, LatencyMaxMS: 80}, clk)
	if err != nil {
		t.Fatal(err)
	}
	wSlow, wFast := newWorker(t), newWorker(t)
	d := soakDispatcher(t, []dispatch.Backend{
		chaos.Wrap(dispatch.NewHTTPBackend(wSlow.URL, nil), slowInj),
		dispatch.NewHTTPBackend(wFast.URL, nil),
	}, clk, true)
	got := render(t, runGrid(t, d, nil, false))
	if want := readGolden(t); string(got) != string(want) {
		t.Errorf("hedged report differs from the golden;\ngot:\n%s", got)
	}
	stats := d.Stats()
	if stats.Hedges == 0 {
		t.Error("no hedges fired against a 30-80ms straggler")
	}
	if healthy := d.Healthy(); len(healthy) != 2 {
		t.Errorf("healthy = %v; losing hedge races must not be blamed on the straggler", healthy)
	}
}
