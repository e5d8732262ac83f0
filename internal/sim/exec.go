package sim

import (
	"context"
	"slices"
	"strings"
	"time"

	"rebalance/internal/trace"
	"rebalance/internal/trace/replay"
	"rebalance/internal/workload/synth"
)

// shardJob is one unit of the {workload x observer-config x seed} grid.
// synth is non-nil (and canonical) for inline synthetic workloads.
type shardJob struct {
	workload string
	synth    *synth.Params
	cfg      ObserverConfig
	seed     uint64
}

// spec re-describes the job as the portable ShardSpec it denotes under
// the run's normalized budget and engine.
func (j *shardJob) spec(norm *Spec) ShardSpec {
	return ShardSpec{
		Workload: j.workload,
		Synth:    j.synth,
		Seed:     j.seed,
		Insts:    norm.Insts,
		Engine:   norm.Engine,
		Observer: j.cfg.Spec(),
	}
}

// plan partitions the grid into the local pool's scheduling units, as
// index groups into jobs. The choice is granularity only — results stay
// index-aligned with jobs, so the report is plan-independent. Without a
// trace store every shard is its own group: regenerating a stream per
// shard is the only cost model there is, and single shards balance the
// pool best. With one, all shards of a (workload, seed) coordinate form
// one group, so the coordinate's stream is fetched once and every observer
// rides a single delivery pass — the stream-once, observe-many schedule.
func (s *Session) plan(jobs []shardJob) [][]int {
	if s.traces == nil {
		idx := make([]int, len(jobs))
		groups := make([][]int, len(jobs))
		for i := range jobs {
			idx[i] = i
			groups[i] = idx[i : i+1 : i+1]
		}
		return groups
	}
	type coord struct {
		workload string
		seed     uint64
	}
	var groups [][]int
	at := map[coord]int{}
	for i := range jobs {
		k := coord{jobs[i].workload, jobs[i].seed}
		g, ok := at[k]
		if !ok {
			g = len(groups)
			at[k] = g
			groups = append(groups, nil)
		}
		groups[g] = append(groups[g], i)
	}
	return groups
}

// pendingShard is a group member the result cache did not serve: its
// grid index, its fresh power-on observer, and the cache write-back it
// owes (nil without a cache).
type pendingShard struct {
	idx  int
	obs  ShardObserver
	land func(Shard, error)
}

// runGroup is the one shard execution path: every shard the session
// computes — pooled grid cells and single RunShard calls alike — is a
// member of a group that shares one trace coordinate, and runs here. Each
// member is first resolved against the result cache; the coordinate's
// stream is then opened once (see stream) and fed to a fresh observer per
// unresolved member in a single pass, so shards are order-independent and
// the grid is deterministic up to timing fields. Results and errors land
// index-aligned in shards/errs; computed shards are written back.
func (s *Session) runGroup(ctx context.Context, c *trace.Compiled, norm *Spec, jobs []shardJob, group []int, shards []Shard, errs []error) {
	pending := make([]pendingShard, 0, len(group))
	if s.cache == nil {
		for _, i := range group {
			pending = append(pending, pendingShard{idx: i})
		}
	} else {
		type keyed struct {
			idx  int
			spec ShardSpec
			key  string
		}
		ks := make([]keyed, len(group))
		for k, i := range group {
			spec := jobs[i].spec(norm)
			ks[k] = keyed{i, spec, ShardCacheKey(spec, jobs[i].cfg)}
		}
		// A group may lead several keys at once; ascending key order is the
		// cache's rule for that (two runs over overlapping grids then cannot
		// wait on each other).
		slices.SortFunc(ks, func(a, b keyed) int { return strings.Compare(a.key, b.key) })
		for _, k := range ks {
			sh, hit, land, err := ResolveShard(ctx, s.cache, k.key, k.spec, jobs[k.idx].cfg)
			switch {
			case err != nil:
				errs[k.idx] = err
			case hit:
				shards[k.idx] = sh
			default:
				pending = append(pending, pendingShard{idx: k.idx, land: land})
			}
		}
	}
	if len(pending) == 0 {
		return
	}

	obs := make([]trace.Observer, len(pending))
	for k := range pending {
		p := &pending[k]
		p.obs = jobs[p.idx].cfg.NewObserver(c.Program())
		obs[k] = p.obs
		if cl, ok := p.obs.(interface{ Close() }); ok {
			// Release observer-owned goroutines even when the pass errors
			// mid-stream.
			defer cl.Close()
		}
	}
	// The pass is shared, so every shard of the group reports the same
	// instruction count and elapsed time: the one walk that fed them all.
	insts, elapsed, err := s.stream(ctx, c, &jobs[pending[0].idx], norm, obs)
	for _, p := range pending {
		job := &jobs[p.idx]
		var sh Shard
		perr := err
		if perr == nil {
			var res Result
			if res, perr = p.obs.Finish(); perr == nil {
				sh = Shard{
					Workload:  job.workload,
					Seed:      job.seed,
					Observer:  job.cfg.Key(),
					Insts:     insts,
					ElapsedNS: elapsed.Nanoseconds(),
					Result:    res,
				}
			}
		}
		shards[p.idx], errs[p.idx] = sh, perr
		if p.land != nil {
			p.land(sh, perr)
		}
	}
}

// stream is the seam every computed shard's instructions come through: it
// produces the coordinate's stream once and feeds it to obs in a single
// pass. Without a trace store that is a live executor. With one, the
// stream is the store's materialized trace — recorded by a live pass on
// first use, at most once across concurrent groups (the store's
// singleflight) — replayed through replay.Deliver. The two are
// bit-equivalent: streams are deterministic per coordinate, observer
// results are batch-boundary invariant, and replay preserves phase
// boundaries. elapsed covers the observed pass only, not a trace fetch.
func (s *Session) stream(ctx context.Context, c *trace.Compiled, job *shardJob, norm *Spec, obs []trace.Observer) (insts int64, elapsed time.Duration, err error) {
	if s.traces == nil {
		start := time.Now() //repolint:allow nodeterminism shard elapsed_ns timing field, excluded from goldens
		insts, err = generate(ctx, c, job.seed, norm, obs)
		return insts, time.Since(start), err //repolint:allow nodeterminism shard elapsed_ns timing field, excluded from goldens
	}
	tr, _, err := s.traces.Do(ctx, traceKey(job.workload, job.synth, job.seed, norm.Insts), func() (*replay.Trace, error) {
		// The recorder sees exactly what a live run's observers would:
		// every emitted instruction in program order.
		rec := replay.NewRecorder()
		rec.Reserve(int(norm.Insts))
		if _, err := generate(ctx, c, job.seed, norm, []trace.Observer{rec}); err != nil {
			return nil, err
		}
		return rec.Trace(), nil
	})
	if err != nil {
		return 0, 0, err
	}
	start := time.Now() //repolint:allow nodeterminism shard elapsed_ns timing field, excluded from goldens
	err = replay.Deliver(ctx, tr, trace.BatchSize, obs...)
	return int64(tr.Len()), time.Since(start), err //repolint:allow nodeterminism shard elapsed_ns timing field, excluded from goldens
}

// generate runs one live generation pass for a coordinate on the spec's
// engine, with a fresh executor, and returns the instructions emitted.
// The context is polled at region granularity.
func generate(ctx context.Context, c *trace.Compiled, seed uint64, norm *Spec, obs []trace.Observer) (int64, error) {
	reference := norm.Engine == EngineReference
	var e *trace.Executor
	if reference {
		e = trace.NewExecutor(c.Program(), seed)
	} else {
		e = trace.NewCompiledExecutor(c, seed)
	}
	e.SetContext(ctx)
	e.Attach(obs...)
	var err error
	if reference {
		err = e.RunReference(norm.Insts)
	} else {
		err = e.Run(norm.Insts)
	}
	return e.Emitted(), err
}
