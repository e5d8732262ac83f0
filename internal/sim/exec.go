package sim

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"

	"rebalance/internal/trace"
	"rebalance/internal/trace/replay"
	"rebalance/internal/workload/synth"
)

// gridCell is one unit of the {workload x observer-config x seed} grid:
// the portable ShardSpec it dispatches as (Synth non-nil for inline
// synthetic workloads, Observer the configuration's canonical
// re-description) and the expanded configuration that observes it.
type gridCell struct {
	spec ShardSpec
	cfg  ObserverConfig
}

// PlanShards partitions a shard grid into scheduling units, as index groups
// into specs — the one plan, run by whoever owns a whole grid: a Session
// over its local pool (slots = workers) and the dispatch layer over its
// backends (slots = units in flight). The choice is granularity only —
// results stay index-aligned with specs, so the report is plan-independent.
// There is one rule, with or without a trace store: the shards of a trace
// coordinate (workload, canonical synth scenario, seed, budget — the tr1-
// key's fields, since an array off the wire need not come from one Spec)
// form one unit, so the coordinate's stream is produced once — one live
// executor, or one store fetch — and every observer rides that single pass,
// the stream-once, observe-many schedule. When that leaves fewer units than
// slots, each coordinate's members are cut, in grid order, into
// ceil(slots/coordinates) contiguous chunks (at most one per member): a
// chunk re-produces its coordinate's stream, which idle cores pay for in
// parallel, and contiguity keeps a coordinate's plain bpred configurations
// together for runGroup to fuse. slots < 1 never cuts. A scenario that does
// not canonicalize is invalid wherever it runs: a coordinate of its own.
func PlanShards(specs []ShardSpec, slots int) [][]int {
	type coord struct {
		workload, synth string
		seed            uint64
		insts           int64
	}
	var groups [][]int
	at := map[coord]int{}
	canon := map[*synth.Params]string{} // one Spec's cells share their scenario
	for i := range specs {
		sp := &specs[i]
		k := coord{workload: sp.Workload, seed: sp.Seed, insts: sp.Insts}
		if sp.Synth != nil {
			c, ok := canon[sp.Synth]
			if !ok {
				c = fmt.Sprintf("invalid#%d", i)
				if data, err := sp.Synth.CanonicalJSON(); err == nil {
					c = string(data)
				}
				canon[sp.Synth] = c
			}
			k.synth = c
		}
		g, ok := at[k]
		if !ok {
			g = len(groups)
			at[k] = g
			groups = append(groups, nil)
		}
		groups[g] = append(groups[g], i)
	}
	if len(groups) >= slots {
		return groups
	}
	var units [][]int
	for _, g := range groups {
		n := min((slots+len(groups)-1)/len(groups), len(g))
		for k := 0; k < n; k++ {
			units = append(units, g[k*len(g)/n:(k+1)*len(g)/n])
		}
	}
	return units
}

// RunUnits is the one grid loop, shared by the session's local pool and
// the dispatch layer: at most workers goroutines take units (index groups
// into an n-cell grid) off a pre-filled queue and hand each to exec, which
// records every member's fate at its index of out. ctx is checked between
// units, and cancellation is decided once, here, from ctx itself and never
// from an outcome's error chain: if ctx ended, that is the run's error and
// the outcomes are dropped; otherwise every failure is a value in out.
func RunUnits(ctx context.Context, n, workers int, units [][]int, exec func(unit []int, out []Outcome)) ([]Outcome, error) {
	out := make([]Outcome, n)
	next := make(chan []int, len(units))
	for _, u := range units {
		next <- u
	}
	close(next)
	var wg sync.WaitGroup
	for w := min(workers, len(units)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for unit := range next {
				if ctx.Err() != nil {
					return
				}
				exec(unit, out)
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// pendingShard is a group member the result cache did not serve: its
// grid index and the cache write-back it owes (nil without a cache).
type pendingShard struct {
	idx  int
	land func(Shard, error)
}

// runGroup is the one shard execution path: every shard the session
// computes — pooled grid cells and worker-protocol members alike — is a
// member of a group that shares one trace coordinate, and runs here. Each
// member is first resolved against the result cache; the coordinate's
// stream is then opened once (see stream) and fed, in a single pass, to the
// fresh observers of the unresolved members only — lane consumers behind one
// feed, the plain bpred members sharing a simulator (see groupObservers).
// Shards are therefore order-independent and the grid is deterministic up to
// timing fields. Each member's outcome lands at its grid index in out;
// computed shards are written back, each under its own key.
func (s *Session) runGroup(ctx context.Context, c *trace.Compiled, cells []gridCell, group []int, out []Outcome) {
	pending := make([]pendingShard, 0, len(group))
	if s.cache == nil {
		for _, i := range group {
			pending = append(pending, pendingShard{idx: i})
		}
	} else {
		type keyed struct {
			idx int
			key string
		}
		ks := make([]keyed, len(group))
		for k, i := range group {
			ks[k] = keyed{i, ShardCacheKey(cells[i].spec, cells[i].cfg)}
		}
		// A group may lead several keys at once; ascending key order is the
		// cache's rule for that (two runs over overlapping grids then cannot
		// wait on each other).
		slices.SortFunc(ks, func(a, b keyed) int { return strings.Compare(a.key, b.key) })
		for _, k := range ks {
			sh, hit, land, err := ResolveShard(ctx, s.cache, k.key, cells[k.idx].spec, cells[k.idx].cfg)
			if err == nil && !hit {
				pending = append(pending, pendingShard{idx: k.idx, land: land})
				continue
			}
			out[k.idx] = Outcome{Shard: sh, Err: err}
		}
	}
	if len(pending) == 0 {
		return
	}

	cfgs := make([]ObserverConfig, len(pending))
	for k := range pending {
		cfgs[k] = cells[pending[k].idx].cfg
	}
	feed, finish := groupObservers(cfgs, c.Program())
	// Release observer-owned goroutines even when the pass errors mid-stream.
	defer feed.Close()
	// The pass is shared, so every shard of the group reports the same
	// instruction count and elapsed time: the one walk that fed them all.
	insts, elapsed, err := s.stream(ctx, c, &cells[pending[0].idx].spec, feed)
	for k, p := range pending {
		cell := &cells[p.idx]
		var sh Shard
		perr := err
		if perr == nil {
			var res Result
			if res, perr = finish[k](); perr == nil {
				sh = Shard{
					Workload:  cell.spec.Workload,
					Seed:      cell.spec.Seed,
					Observer:  cell.cfg.Key(),
					Insts:     insts,
					ElapsedNS: elapsed.Nanoseconds(),
					Result:    res,
				}
			}
		}
		out[p.idx] = Outcome{Shard: sh, Attempts: 1, Err: perr}
		if p.land != nil {
			p.land(sh, perr)
		}
	}
}

// stream is the seam every computed shard's instructions come through: it
// produces the coordinate's stream once, as lanes, and feeds it to obs in a
// single pass. Without a trace store that is a live executor, which hands
// each lane to obs as it is rendered. With one, the stream is the store's
// materialized trace — recorded from the lanes of a live pass on first use,
// at most once across concurrent groups (the store's singleflight) —
// decoded back into lanes by replay.Deliver. The two are bit-equivalent:
// streams are deterministic per coordinate, observer results do not depend
// on where lanes and runs are cut, and replay preserves phase boundaries.
// elapsed covers the observed pass only, not a trace fetch.
func (s *Session) stream(ctx context.Context, c *trace.Compiled, spec *ShardSpec, obs trace.Observer) (insts int64, elapsed time.Duration, err error) {
	if s.traces == nil {
		start := time.Now() //repolint:allow nodeterminism shard elapsed_ns timing field, excluded from goldens
		insts, err = generate(ctx, c, spec, obs)
		return insts, time.Since(start), err //repolint:allow nodeterminism shard elapsed_ns timing field, excluded from goldens
	}
	tr, _, err := s.traces.Do(ctx, traceKey(spec.Workload, spec.Synth, spec.Seed, spec.Insts), func() (*replay.Trace, error) {
		// The recorder sees exactly what a live run's observers would:
		// every emitted lane in program order.
		rec := replay.NewRecorder()
		rec.Reserve(int(spec.Insts))
		if _, err := generate(ctx, c, spec, rec); err != nil {
			return nil, err
		}
		return rec.Trace(), nil
	})
	if err != nil {
		return 0, 0, err
	}
	start := time.Now() //repolint:allow nodeterminism shard elapsed_ns timing field, excluded from goldens
	err = replay.Deliver(ctx, tr, trace.BatchSize, obs)
	return int64(tr.Len()), time.Since(start), err //repolint:allow nodeterminism shard elapsed_ns timing field, excluded from goldens
}

// generate runs one live generation pass for the spec's coordinate, with
// a fresh compiled executor, and returns the instructions emitted. The
// context is polled at region granularity.
func generate(ctx context.Context, c *trace.Compiled, spec *ShardSpec, obs trace.Observer) (int64, error) {
	e := trace.NewCompiledExecutor(c, spec.Seed)
	e.SetContext(ctx)
	e.Attach(obs)
	err := e.Run(spec.Insts)
	return e.Emitted(), err
}
