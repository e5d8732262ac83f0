package sim

// Tests for the session's planned grids (Session.plan): a rerun served from
// a kept plan reports what a fresh session reports, nothing a caller holds
// reaches a kept plan, and the plans stay within their byte bound.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"rebalance/internal/sim/shardcache"
	"rebalance/internal/workload/synth"
)

// strippedJSON is a report's bytes with its timing fields cleared.
func strippedJSON(t *testing.T, rep *Report) []byte {
	t.Helper()
	b, err := json.Marshal(rep.Stripped())
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// cachedSession is a session with a result cache of its own.
func cachedSession(t *testing.T, workers int) *Session {
	t.Helper()
	c, err := shardcache.New(shardcache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := NewSession(workers)
	s.SetCache(c)
	return s
}

// TestPlanHitMatchesFreshSession: a run whose spec a session planned before
// — the same spec, or another spelling of its normalized form — reports
// byte for byte what a fresh session reports for it, and a spelling whose
// canonical bytes differ plans apart but still reports alike, its shards
// served from the first run's cache entries.
func TestPlanHitMatchesFreshSession(t *testing.T) {
	geometry := func(opts string) *Spec {
		return &Spec{Workloads: []string{"comd-lite"}, Seeds: []uint64{1, 2}, Insts: 5_000,
			Observers: []ObserverSpec{{Kind: "btb", Options: json.RawMessage(opts)}}}
	}
	grouped := &Spec{Workloads: []string{"xalan-lite"}, SeedCount: 2, Insts: 5_000,
		Observers: []ObserverSpec{{Kind: "bpred", Options: json.RawMessage(`{"configs":["gshare-small","tage-small"],"grouped":true}`)}, {Kind: "bbl"}}}
	synthSpec := synthGridSpec()
	synthSpec.Insts = 5_000
	cases := []struct {
		name         string
		first, rerun *Spec
		plans        int // kept after both runs
	}{
		{"inline synth", synthSpec, synthGridSpec(), 2}, // the budgets differ
		{"inline synth rerun", synthSpec, synthSpec, 1},
		{"seeds and seed_count", &Spec{Workloads: []string{"comd-lite"}, SeedCount: 3, Insts: 5_000, Observers: []ObserverSpec{{Kind: "bias"}}},
			&Spec{Workloads: []string{"comd-lite"}, Seeds: []uint64{1, 2, 3}, Insts: 5_000, Observers: []ObserverSpec{{Kind: "bias"}}}, 1},
		{"grouped bpred", grouped, grouped, 1},
		{"two spellings of one geometry", geometry(`{"geometries":[{"entries":512,"ways":4}]}`),
			geometry(`{"geometries":[{"ways":4,"entries":512}]}`), 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ctx := context.Background()
			s := cachedSession(t, 2)
			if _, err := s.Run(ctx, tc.first); err != nil {
				t.Fatal(err)
			}
			got, err := s.Run(ctx, tc.rerun)
			if err != nil {
				t.Fatal(err)
			}
			want, err := NewSession(2).Run(ctx, tc.rerun)
			if err != nil {
				t.Fatal(err)
			}
			if g, w := strippedJSON(t, got), strippedJSON(t, want); !bytes.Equal(g, w) {
				t.Fatalf("rerun differs from a fresh session's run:\n got %.400s\nwant %.400s", g, w)
			}
			if len(s.plans) != tc.plans || len(s.planOrder) != tc.plans {
				t.Fatalf("session keeps %d plans (%d in order), want %d", len(s.plans), len(s.planOrder), tc.plans)
			}
			if tc.first.Insts == tc.rerun.Insts {
				for _, sh := range got.Shards {
					if !sh.Cached {
						t.Fatalf("shard {%s %s seed %d} recomputed: both spellings must key alike", sh.Workload, sh.Observer, sh.Seed)
					}
				}
			}
		})
	}
}

// TestPlanHitUnderAllowPartial: a partial run's rerun from its plan fails
// and keeps the same cells a fresh session's run does, the failed cell
// recomputed (its key was released) and the survivor a cache hit.
func TestPlanHitUnderAllowPartial(t *testing.T) {
	full := localShards(t, partialSpec(false))
	script := []Outcome{{Shard: full[0], Attempts: 1}, {Attempts: 3, Err: errors.New("backend ate it")}}
	ctx := context.Background()
	s := cachedSession(t, 2)
	r := &scriptedRunner{out: script}
	s.SetRunner(r)
	for range 2 {
		if _, err := s.Run(ctx, partialSpec(true)); err != nil {
			t.Fatal(err)
		}
	}
	got, err := s.Run(ctx, partialSpec(true))
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := runScripted(true, script...)
	if err != nil {
		t.Fatal(err)
	}
	if g, w := strippedJSON(t, got), strippedJSON(t, want); !bytes.Equal(g, w) {
		t.Fatalf("partial rerun differs from a fresh session's run:\n got %s\nwant %s", g, w)
	}
	if len(got.FailedShards) != 1 || !got.Shards[0].Cached {
		t.Fatalf("rerun: failed %+v, survivor cached %v; want the seed-2 failure and a cached seed 1", got.FailedShards, got.Shards[0].Cached)
	}
	if len(r.specs) != 4 { // both cells, then the failed one on each rerun
		t.Fatalf("runner was sent %d shards over three runs, want 4", len(r.specs))
	}
}

// TestPlanIgnoresCallerMutation: a kept plan shares nothing with what the
// caller holds. Editing the spec a run was given, or the report's echoed
// spec and shard list, changes nothing in the next run's report.
func TestPlanIgnoresCallerMutation(t *testing.T) {
	ctx := context.Background()
	spec := func() *Spec {
		sp := synthGridSpec()
		sp.Synth[0].TripCounts = []int{12, 20}
		sp.Insts = 5_000
		sp.Observers = []ObserverSpec{{Kind: "btb", Options: json.RawMessage(`{"geometries":[{"entries":256,"ways":2}]}`)}, {Kind: "bbl"}}
		return sp
	}
	fresh := func(sp *Spec) []byte {
		rep, err := NewSession(2).Run(ctx, sp)
		if err != nil {
			t.Fatal(err)
		}
		return strippedJSON(t, rep)
	}
	s := NewSession(2) // no cache: the rerun computes from the plan's cells
	mine := spec()
	rep, err := s.Run(ctx, mine)
	if err != nil {
		t.Fatal(err)
	}
	// The report's spec and shards are the caller's to edit.
	rep.Spec.Workloads[0], rep.Spec.Seeds[0], rep.Spec.Insts = "comd-lite", 9, 7
	rep.Spec.Synth[0].TripCounts[0], rep.Spec.Synth[1].Bias = 999, 0.92
	rep.Spec.Observers[0] = ObserverSpec{Kind: "bias"}
	rep.Shards[0].Workload, rep.Shards[0].Seed, rep.Shards[0].Result = "x", 77, nil
	rep.Shards = rep.Shards[:1]
	again, err := s.Run(ctx, spec())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := strippedJSON(t, again), fresh(spec()); !bytes.Equal(got, want) {
		t.Fatalf("after editing a report, the rerun differs:\n got %.400s\nwant %.400s", got, want)
	}
	// So is the spec it passed in: an edit in place is a new spec.
	mine.Synth[0].TripCounts[1] = 40
	mine.Observers[0].Options[len(`{"geometries":[{"entries":`)] = '5'
	mine.Seeds[1] = 3
	edited, err := s.Run(ctx, mine)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := strippedJSON(t, edited), fresh(mine); !bytes.Equal(got, want) {
		t.Fatalf("after editing the spec in place, the run differs:\n got %.400s\nwant %.400s", got, want)
	}
	if len(s.plans) != 2 {
		t.Fatalf("session keeps %d plans, want the spec's and its edit's", len(s.plans))
	}
}

// TestPlanBound: a session's plans are charged within maxPlanBytes, the
// oldest evicted first, and a grid charged over it is planned on every run
// and never kept. What the kept plans hold stays within their charge,
// measured on the live heap: for grids of the most cells the bound keeps,
// and for one-cell specs whose options carry 100 KB of duplicate keys,
// whose bytes a plan must not keep (its key is their SHA-256).
func TestPlanBound(t *testing.T) {
	if maxPlanBytes != 1<<20 || planBaseBytes != 1024 || planCellBytes != 768 {
		t.Fatalf("plan bound = %d B, charged %d B + %d B a cell; want 1 MiB, 1024 B + 768 B", maxPlanBytes, planBaseBytes, planCellBytes)
	}
	ctx := context.Background()
	grid := func(insts int64, seeds int) *Spec {
		return &Spec{Workloads: []string{"comd-lite"}, SeedCount: seeds, Insts: insts, Observers: []ObserverSpec{{Kind: "branch-mix"}}}
	}
	// live is the heap's live bytes once the collector has run.
	live := func() int64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	run := func(s *Session, sp *Spec) {
		t.Helper()
		if _, err := s.Run(ctx, sp); err != nil {
			t.Fatal(err)
		}
	}

	t.Run("eviction", func(t *testing.T) {
		s := NewSession(2)
		const seeds = 256
		charge := planBaseBytes + planCellBytes*seeds
		fit := maxPlanBytes / charge
		for insts := int64(1); insts <= int64(fit+1); insts++ { // the last evicts the first
			run(s, grid(insts, seeds))
			if s.planBytes > maxPlanBytes {
				t.Fatalf("after grid %d the plans are charged %d B, over %d", insts, s.planBytes, maxPlanBytes)
			}
		}
		if len(s.plans) != fit || len(s.planOrder) != fit || s.planBytes != fit*charge {
			t.Fatalf("session keeps %d plans (%d in order) charged %d B, want %d charged %d B", len(s.plans), len(s.planOrder), s.planBytes, fit, fit*charge)
		}
		for insts := int64(1); insts <= int64(fit+1); insts++ {
			norm, err := grid(insts, seeds).normalized()
			if err != nil {
				t.Fatal(err)
			}
			canon, _ := json.Marshal(norm)
			if kept := s.plans[sha256.Sum256(canon)] != nil; kept != (insts > 1) {
				t.Fatalf("grid %d kept = %v; want the oldest evicted and the rest kept", insts, kept)
			}
		}
		run(s, grid(1, (maxPlanBytes-planBaseBytes)/planCellBytes+1))
		if len(s.plans) != fit || s.planBytes != fit*charge {
			t.Fatalf("an over-bound grid changed the plans: %d plans charged %d B", len(s.plans), s.planBytes)
		}
	})

	// One grid of the most cells the bound keeps, three ways: every cell
	// a seed, a configuration of its own, or a scenario of its own, named
	// as long as a name may be. Each spec is built after the heap is read,
	// so what the plan keeps of the request's strings counts.
	t.Run("cells", func(t *testing.T) {
		cells := (maxPlanBytes - planBaseBytes) / planCellBytes
		specs := []func() *Spec{
			func() *Spec { return grid(1, cells) },
			func() *Spec {
				geoms := make([]string, cells)
				for i := range geoms {
					geoms[i] = fmt.Sprintf(`{"entries":%d,"ways":1}`, i+1)
				}
				return &Spec{Workloads: []string{"comd-lite"}, Seeds: []uint64{1}, Insts: 1,
					Observers: []ObserverSpec{{Kind: "btb", Options: json.RawMessage(`{"geometries":[` + strings.Join(geoms, ",") + `]}`)}}}
			},
			func() *Spec {
				sp := &Spec{Seeds: []uint64{1}, Insts: 1, Observers: []ObserverSpec{{Kind: "branch-mix"}}}
				for i := range cells {
					name := fmt.Sprintf("synth-%058d", i)
					sp.Workloads = append(sp.Workloads, strings.Clone(name))
					sp.Synth = append(sp.Synth, synth.Params{Name: name, Seed: uint64(i), TripCounts: []int{12, 13, 14, 15, 16, 17, 18, 19}})
				}
				return sp
			},
		}
		for _, spec := range specs {
			s := NewSession(1)
			before := live()
			norm, err := spec().normalized()
			if err == nil {
				_, err = s.plan(norm)
			}
			if err != nil {
				t.Fatal(err)
			}
			norm = nil // the plan holds none of it
			held := live() - before
			p := s.plans[s.planOrder[0]]
			t.Logf("%d workloads x %d configurations x %d seeds: %d B held, %d B a cell; charged %d B",
				len(p.cells)/len(p.configs)/int(p.cells[len(p.cells)-1].spec.Seed), len(p.configs), p.cells[len(p.cells)-1].spec.Seed,
				held, held/int64(cells), s.planBytes)
			if len(p.cells) != cells || held > int64(s.planBytes) {
				t.Fatalf("a plan of %d cells holds %d B, over the %d B it is charged", len(p.cells), held, s.planBytes)
			}
		}
	})

	t.Run("duplicate keys", func(t *testing.T) {
		s := cachedSession(t, 1)
		dup := func(n int) *Spec {
			opts := `{"configs":["gshare-small"]` + strings.Repeat(`,"grouped":false`, n) + `}`
			return &Spec{Workloads: []string{"comd-lite"}, Seeds: []uint64{1}, Insts: 1_000,
				Observers: []ObserverSpec{{Kind: "bpred", Options: json.RawMessage(opts)}}}
		}
		const dups = 100_000 / len(`,"grouped":false`)
		run(s, dup(dups)) // compile and fill the cache: every later run hits
		before := live()
		const runs = 64 // 6.4 MB of options
		for i := 1; i <= runs; i++ {
			run(s, dup(dups+i))
		}
		held := live() - before
		t.Logf("%d one-cell plans kept; the session holds %d B more, %d B a plan", len(s.plans), held, held/runs)
		if len(s.plans) != runs+1 || held > int64(s.planBytes) {
			t.Fatalf("%d plans hold %d B, over the %d B they are charged", len(s.plans), held, s.planBytes)
		}
	})
}

// TestConcurrentRunsShareAPlan: runs of one spec at once, planned by
// whichever gets there first, read one plan and one cache concurrently
// (make race runs it), and all report alike.
func TestConcurrentRunsShareAPlan(t *testing.T) {
	ctx := context.Background()
	spec := benchSweepSpec(5_000)
	s := cachedSession(t, 2)
	const runs = 4
	reps := make([][]byte, runs)
	errs := make([]error, runs)
	var wg sync.WaitGroup
	for round := 0; round < 2; round++ { // the first round plans and fills, the second hits
		for i := range runs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				rep, err := s.Run(ctx, spec)
				if err == nil {
					reps[i], err = json.Marshal(rep.Stripped())
				}
				errs[i] = err
			}()
		}
		wg.Wait()
		for i := range runs {
			if errs[i] != nil {
				t.Fatal(errs[i])
			}
			if !bytes.Equal(reps[i], reps[0]) {
				t.Fatalf("round %d: run %d differs from run 0", round, i)
			}
		}
	}
	if len(s.plans) != 1 || len(s.planOrder) != 1 || s.planBytes != planBaseBytes+36*planCellBytes {
		t.Fatalf("session keeps %d plans (%d in order, charged %d B), want one of 36 cells", len(s.plans), len(s.planOrder), s.planBytes)
	}
}

// TestWarmRerunAllocs pins what a warm rerun allocates: an all-hits run of
// the mixed9 grid (2 workloads x 4 seeds x the nine configurations) plans
// nothing, so its allocations are the cache lookups, the merge and the
// report: 116 (120-122 under -race, whose pools drop items), against 679
// when every run expanded, keyed and sorted its grid again. A count does
// not move with host speed.
func TestWarmRerunAllocs(t *testing.T) {
	spec := benchSweepSpec(20_000)
	spec.SeedCount = 4
	s := cachedSession(t, 0)
	ctx := context.Background()
	for range 2 { // fill the cache, then decode every record once
		if _, err := s.Run(ctx, spec); err != nil {
			t.Fatal(err)
		}
	}
	const want = 116
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := s.Run(ctx, spec); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > want*1.1 {
		t.Fatalf("a warm rerun allocates %.0f times, want at most %d + 10%%", allocs, want)
	}
}
