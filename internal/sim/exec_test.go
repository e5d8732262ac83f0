package sim

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"rebalance/internal/sim/shardcache"
	"rebalance/internal/trace"
	"rebalance/internal/trace/replay"
	"rebalance/internal/workload/synth"
)

// cellOf is the grid cell Session.Run builds for one shard of a built-in
// workload under cfg, which need not be of a built-in kind.
func cellOf(workload string, cfg ObserverConfig, seed uint64, insts int64) gridCell {
	norm := &Spec{Workloads: []string{workload}, Seeds: []uint64{seed}, Insts: insts, Engine: EngineCompiled}
	return gridCells(norm, []ObserverConfig{cfg}, nil)[0]
}

// runJob runs one cell as a grid of one on s — resolved against the
// session's result cache, then computed by the group executor — the tests'
// direct line into both, for configurations that must stay out of
// observerKinds and for driving a bare (cacheless, storeless) session.
func (s *Session) runJob(ctx context.Context, c *trace.Compiled, cell gridCell) (Shard, error) {
	out := make([]Outcome, 1)
	_, err := s.runGrid(ctx, []gridCell{cell}, out, 0, 1, func(ctx context.Context, cells []gridCell, miss []int, out []Outcome) {
		s.runGroup(ctx, c, cells, miss, out)
	}, func(int) {})
	if err != nil {
		return Shard{}, err
	}
	return out[0].Shard, out[0].Err
}

// gridOf expands spec the way Session.Run does, for tests that drive plan
// or runGroup over a real grid.
func gridOf(t *testing.T, spec *Spec) []gridCell {
	t.Helper()
	norm, err := spec.normalized(0)
	if err != nil {
		t.Fatal(err)
	}
	configs, err := expandObservers(norm.Observers)
	if err != nil {
		t.Fatal(err)
	}
	return gridCells(norm, configs, nil)
}

// TestWorkersFollowThePlan: plan has one rule — a unit per (workload, seed)
// coordinate, and when that leaves workers idle, ceil(workers/coordinates)
// contiguous chunks per coordinate, at most one per member — applied to the
// grid's result-cache misses alone, and the pool, and Report.Workers, are
// sized by the units it yields, not by the raw shard count: an all-hits
// grid plans no unit and reports 0 workers, and a half-warm grid's units
// all fall in its cold coordinate. The plan is a function of the misses and
// the slot count alone (a trace store changes where a unit's stream comes
// from, and has no way to reach the plan); and the plan changes scheduling,
// never the report.
func TestWorkersFollowThePlan(t *testing.T) {
	// The mixed nine: three plain bpred configs (the fusable members) among
	// six of four other kinds.
	observers := benchSweepSpec(0).Observers
	grid := func(workloads []string, seeds ...uint64) *Spec {
		return &Spec{Workloads: workloads, Seeds: seeds, Insts: 5_000, Observers: observers}
	}
	eight := grid([]string{"comd-lite", "xalan-lite"}, 1, 2, 3, 4)
	two := grid([]string{"comd-lite"}, 1, 2)
	one := grid([]string{"comd-lite"}, 1)
	single := &Spec{Workloads: []string{"comd-lite"}, Seeds: []uint64{1}, Insts: 5_000, Observers: []ObserverSpec{{Kind: "bbl"}}}
	cases := []struct {
		name    string
		spec    *Spec
		warm    *Spec // run first on the same result cache, so its shards are hits
		workers int
		units   int
	}{
		{"8 coordinates x 9 configs, 2 workers", eight, nil, 2, 8},
		{"8 coordinates x 9 configs, 4 workers", eight, nil, 4, 8},
		{"1 coordinate x 9 configs, 4 workers", one, nil, 4, 4},
		{"2 coordinates x 9 configs, 16 workers", two, nil, 16, 16}, // ceil(16/2) = 8 chunks of each coordinate's 9
		{"1 coordinate x 9 configs, 16 workers", one, nil, 16, 9},   // capped by members
		{"RunShard's one-job grid, 16 workers", single, nil, 16, 1},
		{"1 coordinate x 9 configs, all hits, 4 workers", one, one, 4, 0},
		{"1 warm + 1 cold coordinate x 9 configs, 4 workers", two, one, 4, 4}, // the cold one's 9, cut in 4
	}
	rendered := map[*Spec]string{}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			jobs := gridOf(t, tc.spec)
			hit := map[string]bool{}
			if tc.warm != nil {
				for _, c := range gridOf(t, tc.warm) {
					hit[ShardCacheKey(c.spec, c.cfg)] = true
				}
			}
			var misses []int
			for i := range jobs {
				if !hit[ShardCacheKey(jobs[i].spec, jobs[i].cfg)] {
					misses = append(misses, i)
				}
			}
			plain := NewSession(tc.workers)
			stored, _ := newReplaySession(t, tc.workers, replay.Options{})
			units := planShards(jobs, misses, tc.workers)
			if len(units) != tc.units {
				t.Fatalf("plan yields %d units, want %d", len(units), tc.units)
			}
			// The units partition the misses, each within one coordinate and
			// in grid order, so a coordinate's bpred configs stay adjacent.
			seen := make([]bool, len(jobs))
			planned := 0
			for _, u := range units {
				planned += len(u)
				lastBpred := -1
				for k, i := range u {
					if seen[i] {
						t.Fatalf("shard %d is in two units", i)
					}
					seen[i] = true
					if jobs[i].spec.Workload != jobs[u[0]].spec.Workload || jobs[i].spec.Seed != jobs[u[0]].spec.Seed {
						t.Errorf("unit %v spans coordinates", u)
					}
					if k > 0 && i <= u[k-1] {
						t.Errorf("unit %v is not in grid order", u)
					}
					if _, ok := jobs[i].cfg.(bpredCfg); ok {
						if lastBpred >= 0 && lastBpred != k-1 {
							t.Errorf("unit %v separates its bpred configs", u)
						}
						lastBpred = k
					}
				}
			}
			for _, i := range misses {
				if !seen[i] {
					t.Fatalf("missed shard %d is in no unit", i)
				}
			}
			if planned != len(misses) {
				t.Fatalf("units hold %d shards, want the %d misses alone", planned, len(misses))
			}

			for name, sess := range map[string]*Session{"storeless": plain, "store": stored} {
				if tc.warm != nil {
					cache, err := shardcache.New(shardcache.Options{})
					if err != nil {
						t.Fatal(err)
					}
					sess.SetCache(cache)
					if _, err := sess.Run(context.Background(), tc.warm); err != nil {
						t.Fatal(err)
					}
				}
				rep, err := sess.Run(context.Background(), tc.spec)
				if err != nil {
					t.Fatal(err)
				}
				if want := min(tc.workers, tc.units); rep.Workers != want {
					t.Errorf("%s run reports %d workers, want min(%d workers, %d units)", name, rep.Workers, tc.workers, tc.units)
				}
				got := string(renderGolden(t, rep))
				if prev, ok := rendered[tc.spec]; ok && prev != got {
					t.Errorf("%s run's report differs from the same grid's under another plan", name)
				}
				rendered[tc.spec] = got
			}
		})
	}
}

// TestOverlappingGroupsComputeOnce: two concurrent runs whose grids
// overlap — the same observers listed in opposite orders, so the runs'
// groups want the same result-cache keys in opposite grid order — must
// both finish, agree shard for shard, and between them compute each
// distinct shard exactly once: whichever run leads a key, the other is
// served by its flight or its write-back. (Leading several keys at once is
// why runGrid takes them in ascending key order rather than grid order.) A
// third caller, concurrent with both, is a worker-protocol array that names
// one of those shards twice — a duplicate key inside one grid, led once —
// and it too is served by the same single computes. A grid leads several
// keys with or without a trace store — cache on, store off is how simd
// serves — so both session shapes are driven.
func TestOverlappingGroupsComputeOnce(t *testing.T) {
	forward := []ObserverSpec{{Kind: "bbl"}, {Kind: "bias"}, {Kind: "branch-mix"}, {Kind: "footprint"}}
	backward := []ObserverSpec{forward[3], forward[2], forward[1], forward[0]}
	spec := func(obs []ObserverSpec) *Spec {
		return &Spec{Workloads: []string{"comd-lite"}, Seeds: []uint64{1, 2}, Insts: 30_000, Observers: obs}
	}
	sessions := map[string]func() *Session{
		"cache+store": func() *Session { sess, _ := newReplaySession(t, 2, replay.Options{}); return sess },
		"cache-only":  func() *Session { return NewSession(2) },
	}
	for name, newSession := range sessions {
		for round := 0; round < 10; round++ {
			sess := newSession()
			cache, err := shardcache.New(shardcache.Options{})
			if err != nil {
				t.Fatal(err)
			}
			sess.SetCache(cache)
			reps := make([]*Report, 2)
			errs := make([]error, 2)
			var wg sync.WaitGroup
			for i, obs := range [][]ObserverSpec{forward, backward} {
				wg.Add(1)
				go func(i int, sp *Spec) {
					defer wg.Done()
					reps[i], errs[i] = sess.Run(context.Background(), sp)
				}(i, spec(obs))
			}
			// bbl seed 1, bias seed 1, and bbl seed 1 again.
			cells := gridOf(t, spec(forward))
			array := []ShardSpec{cells[0].spec, cells[2].spec, cells[0].spec}
			var arrayOut []Outcome
			var arrayErr error
			wg.Add(1)
			go func() {
				defer wg.Done()
				arrayOut, arrayErr = sess.RunShards(context.Background(), array)
			}()
			wg.Wait()
			for _, err := range append(errs, arrayErr) {
				if err != nil {
					t.Fatal(err)
				}
			}
			results := map[string]string{}
			for _, rep := range reps {
				for _, sh := range rep.Shards {
					id := fmt.Sprintf("%s/%d", sh.Observer, sh.Seed)
					enc := encode(t, sh.Result)
					if prev, ok := results[id]; ok && prev != enc {
						t.Errorf("%s: shard %s differs between the two runs", name, id)
					}
					results[id] = enc
				}
			}
			for k, o := range arrayOut {
				id := fmt.Sprintf("%s/%d", o.Shard.Observer, o.Shard.Seed)
				if o.Err != nil || encode(t, o.Shard.Result) != results[id] {
					t.Errorf("%s: array member %d (%s, err %v) differs from the runs' shard", name, k, id, o.Err)
				}
			}
			// Each run leads its 8 keys, the array its 2 distinct ones: one
			// lead per distinct key computes, every other lead is a hit.
			const leads = 8 + 8 + 2
			if st := cache.Stats(); int(st.Misses) != len(results) || int(st.Hits) != leads-len(results) {
				t.Errorf("%s round %d: %d misses / %d hits for %d distinct shards led %d times; want each computed once and every other lead served",
					name, round, st.Misses, st.Hits, len(results), leads)
			}
		}
	}
}

// recordingRunner is a LocalBackend without the dispatch package: another
// session's RunShards, recording the specs of every call.
type recordingRunner struct {
	sess  *Session
	mu    sync.Mutex
	calls [][]ShardSpec
}

func (r *recordingRunner) RunShards(ctx context.Context, specs []ShardSpec) ([]Outcome, error) {
	r.mu.Lock()
	r.calls = append(r.calls, specs)
	r.mu.Unlock()
	return r.sess.RunShards(ctx, specs)
}

// TestPartialHitGroupComputesOnlyItsMisses: a unit that is partly
// result-cache hits computes — streams to, and fuses — only its misses. Four
// of a coordinate's nine bpred shards are pre-filled; the grid run must
// serve those four as Cached, compute and write back exactly the other
// five, and report all nine byte-equal to shards executed alone. Routed
// over a runner (a session of its own, without the cache), the five cold
// members travel as the unit's one call and the report is the local one.
// The plan of a grid is the plan of its misses: a warm coordinate beside a
// cold one yields units of the cold one only.
func TestPartialHitGroupComputesOnlyItsMisses(t *testing.T) {
	ctx := context.Background()
	spec := &Spec{Workloads: []string{"comd-lite"}, Seeds: []uint64{1}, Insts: 30_000, Observers: []ObserverSpec{{Kind: "bpred"}}}
	jobs := gridOf(t, spec)
	if len(jobs) != 9 {
		t.Fatalf("default bpred grid has %d configs, want the nine of Figure 5", len(jobs))
	}
	prefilled := map[int]bool{1: true, 3: true, 4: true, 7: true}
	bare := NewSession(1)
	rendered := map[bool]string{}
	for _, dispatched := range []bool{false, true} {
		// One worker, so the coordinate is one unit of nine.
		sess := newCachedSession(t, 1, "")
		c, err := sess.Compiled("comd-lite")
		if err != nil {
			t.Fatal(err)
		}
		for i := range prefilled {
			if _, err := sess.runJob(ctx, c, jobs[i]); err != nil {
				t.Fatal(err)
			}
		}
		backend := &recordingRunner{sess: NewSession(1)}
		if dispatched {
			sess.SetRunner(backend)
		}
		before := sess.Cache().Stats()
		rep, err := sess.Run(ctx, spec)
		if err != nil {
			t.Fatal(err)
		}
		if !dispatched && rep.Workers != 1 {
			t.Fatalf("run reports %d workers; the test needs the coordinate in one unit", rep.Workers)
		}
		after := sess.Cache().Stats()
		if hits, misses, landed := after.Hits-before.Hits, after.Misses-before.Misses, after.Entries-before.Entries; hits != 4 || misses != 5 || landed != 5 {
			t.Errorf("dispatched=%v: %d hits, %d misses, %d write-backs; want 4, 5, 5", dispatched, hits, misses, landed)
		}
		if dispatched {
			cold := map[string]bool{}
			for i := range jobs {
				if !prefilled[i] {
					cold[jobs[i].cfg.Key()] = true
				}
			}
			if len(backend.calls) != 1 || len(backend.calls[0]) != len(cold) {
				t.Fatalf("runner calls carried %v; want one call of the %d cold members", backend.calls, len(cold))
			}
			for _, sp := range backend.calls[0] {
				if cfg, err := sp.Config(); err != nil || !cold[cfg.Key()] {
					t.Errorf("runner was sent %s, a pre-filled member", sp.Observer.Kind)
				}
			}
		}
		for i, sh := range rep.Shards {
			if sh.Cached != prefilled[i] {
				t.Errorf("dispatched=%v: shard %s: Cached = %v, want %v", dispatched, sh.Observer, sh.Cached, prefilled[i])
			}
			alone, err := bare.runJob(ctx, c, jobs[i])
			if err != nil {
				t.Fatal(err)
			}
			if got, want := encode(t, sh.Result), encode(t, alone.Result); got != want {
				t.Errorf("dispatched=%v: shard %s differs from the same shard executed alone:\n got: %s\nwant: %s", dispatched, sh.Observer, got, want)
			}
		}
		rendered[dispatched] = string(renderGolden(t, rep))
	}
	if rendered[true] != rendered[false] {
		t.Errorf("dispatched report differs from the local one:\n got: %s\nwant: %s", rendered[true], rendered[false])
	}

	// Two coordinates at 4 workers, one warm and one cold: the plan sees the
	// cold one's nine misses alone, cut into 4 units, so every runner call
	// carries the cold coordinate only; an all-warm rerun then plans no unit,
	// calls no runner and reports 0 workers locally.
	two := &Spec{Workloads: spec.Workloads, Seeds: []uint64{1, 2}, Insts: spec.Insts, Observers: spec.Observers}
	for _, dispatched := range []bool{false, true} {
		sess := newCachedSession(t, 4, "")
		if _, err := sess.Run(ctx, spec); err != nil { // seed 1 warm
			t.Fatal(err)
		}
		backend := &recordingRunner{sess: NewSession(1)}
		if dispatched {
			sess.SetRunner(backend)
		}
		for _, units := range []int{4, 0} { // half-warm, then all-warm
			rep, err := sess.Run(ctx, two)
			if err != nil {
				t.Fatal(err)
			}
			if !dispatched && rep.Workers != units {
				t.Errorf("local run reports %d workers, want %d (one per unit)", rep.Workers, units)
			}
		}
		if dispatched && len(backend.calls) != 4 {
			t.Errorf("runner got %d calls, want the cold coordinate's 4 units and none for the all-warm rerun", len(backend.calls))
		}
		for _, call := range backend.calls {
			for _, sp := range call {
				if sp.Seed != 2 {
					t.Errorf("runner was sent %s of warm seed %d", sp.Observer.Kind, sp.Seed)
				}
			}
		}
	}
}

// TestStoppedGridReleasesItsLeads: runGrid leads every key of its grid
// before any unit runs, so a grid that stops early must land each key it
// led for a unit that never ran — released, nothing stored — or a later run
// over the same keys waits on them for good. Two ways to stop: a strict run
// on one worker whose first unit fails, aborting with the other two units
// still queued, and a run cancelled between resolve and compute (its
// ShardDone hook cancels on the hit resolve delivers). After either, every
// key the run led has been landed, and a rerun of the grid on the same
// cache completes, computes those shards and leaves only records that
// decode to their cells.
func TestStoppedGridReleasesItsLeads(t *testing.T) {
	registerFailFinish(t)
	failFinishes.Store(0)
	t.Cleanup(func() { failFinishes.Store(0) })
	spec := &Spec{Workloads: []string{"comd-lite"}, Seeds: []uint64{1, 2, 3}, Insts: 5_000, Observers: []ObserverSpec{{Kind: "fail-finish"}}}
	// rerun checks that the stopped run landed the led keys beyond those
	// before counts and stored nothing, then runs the grid again.
	rerun := func(t *testing.T, sess *Session, before shardcache.Stats, led int) {
		t.Helper()
		if st := sess.Cache().Stats(); st.Misses-before.Misses != int64(led) || st.Entries != before.Entries {
			t.Fatalf("the stopped run landed %d keys and stored %d records; want its %d led keys landed and nothing stored",
				st.Misses-before.Misses, st.Entries-before.Entries, led)
		}
		failFinishes.Store(0)
		rep, err := sess.Run(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		computed := 0
		for _, sh := range rep.Shards {
			if !sh.Cached {
				computed++
			}
		}
		if computed != led {
			t.Errorf("rerun computed %d shards, want the %d the stopped run led", computed, led)
		}
		for _, cell := range gridOf(t, spec) {
			data, ok := sess.Cache().Get(ShardCacheKey(cell.spec, cell.cfg))
			if !ok {
				t.Errorf("seed %d: no record after the rerun", cell.spec.Seed)
			} else if _, err := DecodeShard(data, cell.spec, cell.cfg); err != nil {
				t.Errorf("seed %d: the stored record does not decode to its cell: %v", cell.spec.Seed, err)
			}
		}
	}
	t.Run("strict abort", func(t *testing.T) {
		sess := newCachedSession(t, 1, "")
		failFinishes.Store(1)
		if _, err := sess.Run(context.Background(), spec); err == nil || !strings.Contains(err.Error(), "scripted finish failure") {
			t.Fatalf("Run = %v, want the first unit's failure", err)
		}
		rerun(t, sess, shardcache.Stats{}, 3) // the failed key and the two queued units'
	})
	t.Run("cancel", func(t *testing.T) {
		sess := newCachedSession(t, 2, "")
		warm := *spec
		warm.Seeds = []uint64{2}
		if _, err := sess.Run(context.Background(), &warm); err != nil {
			t.Fatal(err)
		}
		before := sess.Cache().Stats()
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		if _, err := sess.Run(WithShardDone(ctx, func(Shard, error) { cancel() }), spec); !errors.Is(err, context.Canceled) {
			t.Fatalf("Run = %v, want context.Canceled", err)
		}
		rerun(t, sess, before, 2) // seeds 1 and 3; seed 2 was the hit
	})
}

// TestRunShardsKeepsCoordinatesApart: an array off the wire need not come
// from one Spec, so two members may share workload and seed and still name
// different streams — another budget, or another scenario under the same
// name. Each distinct coordinate is its own pass: every shard reports at
// least its own budget and equals the same spec executed alone, an invalid
// member fails alone, and the members that do share a coordinate still ride
// one pass (one trace-store miss per coordinate).
func TestRunShardsKeepsCoordinatesApart(t *testing.T) {
	ctx := context.Background()
	flat, steep := synth.Params{Name: "twin", Bias: 0.9}, synth.Params{Name: "twin", Bias: 0.99}
	obs := func(kind string) ObserverSpec { return ObserverSpec{Kind: kind} }
	specs := []ShardSpec{
		{Workload: "comd-lite", Seed: 1, Insts: 5_000, Observer: obs("bbl")},
		{Workload: "comd-lite", Seed: 1, Insts: 40_000, Observer: obs("bbl")},
		{Workload: "comd-lite", Seed: 1, Insts: 5_000, Observer: obs("branch-mix")},
		{Workload: "twin", Synth: &flat, Seed: 1, Insts: 5_000, Observer: obs("bias")},
		{Workload: "twin", Synth: &steep, Seed: 1, Insts: 5_000, Observer: obs("bias")},
		{Workload: "no-such", Seed: 1, Insts: 5_000, Observer: obs("bbl")},
		{Workload: "comd-lite", Seed: 1, Insts: 40_000, Observer: obs("branch-mix")},
	}
	cells := make([]gridCell, len(specs))
	for i := range specs {
		cells[i].spec = specs[i]
	}
	if units := planShards(cells, []int{0, 1, 2, 3, 4, 5, 6}, 0); len(units) != 5 {
		t.Fatalf("plan groups the array into %d units, want 5 (four coordinates and the unrunnable member's): %v", len(units), units)
	}
	sess, traces := newReplaySession(t, 2, replay.Options{})
	out, err := sess.RunShards(ctx, specs)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(specs) {
		t.Fatalf("%d outcomes for %d specs", len(out), len(specs))
	}
	alone := NewSession(1)
	for i, spec := range specs {
		if spec.Workload == "no-such" {
			if !errors.Is(out[i].Err, ErrInvalidSpec) {
				t.Errorf("member %d: err = %v, want ErrInvalidSpec", i, out[i].Err)
			}
			continue
		}
		if out[i].Err != nil {
			t.Fatalf("member %d: %v", i, out[i].Err)
		}
		want, err := alone.RunShard(ctx, spec)
		if err != nil {
			t.Fatal(err)
		}
		if got := out[i].Shard; got.Insts < spec.Insts || got.Insts != want.Insts || encode(t, got.Result) != encode(t, want.Result) {
			t.Errorf("member %d {%s %s insts %d}: %d insts, result %s;\nalone: %d insts, result %s",
				i, spec.Workload, spec.Observer.Kind, spec.Insts, got.Insts, encode(t, got.Result), want.Insts, encode(t, want.Result))
		}
	}
	if encode(t, out[3].Shard.Result) == encode(t, out[4].Shard.Result) {
		t.Error("two scenarios under one name produced one result; they were fused into one pass")
	}
	if st := traces.Stats(); st.Misses != 4 || st.Hits != 0 {
		t.Errorf("trace store saw %d misses, %d hits; want one pass per distinct coordinate (4) and none shared twice", st.Misses, st.Hits)
	}
}
