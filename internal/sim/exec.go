package sim

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"

	"rebalance/internal/program"
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

// planShards partitions a grid's members (indices into cells in grid order:
// the misses runGrid left to compute) into scheduling units — the one plan,
// made by the session that owns the grid (slots = its workers, whether the
// units then run on its local pool or go to its runner one call each) and,
// uncut, by Session.RunShards for an arriving array. It sets granularity
// only: results stay index-aligned with cells, the report plan-independent.
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
func planShards(cells []gridCell, members []int, slots int) [][]int {
	type coord struct {
		workload, synth string
		seed            uint64
		insts           int64
	}
	var groups [][]int
	at := map[coord]int{}
	canon := map[*synth.Params]string{} // one Spec's cells share their scenario
	for _, i := range members {
		sp := &cells[i].spec
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

// runGrid is the one shard execution path of Session.Run and RunShards:
// resolve, plan the misses, compute, land. Each cell without an error yet
// (an invalid array member has one) has its key led once (resolveShard), in
// ascending key order across the grid — the cache's rule for leading several
// keys, so overlapping grids cannot wait on each other; a repeated key (an
// array may name a shard twice) takes its leader's outcome when the grid
// ends. Hits go to out and done at once. planShards sees only the misses, in
// grid order, cut for slots, so an all-hits grid starts no goroutine; at
// most the session's workers goroutines take the units, and each unit holds
// a slot of the session's gate while it computes, landing each member and
// passing it to done as its unit ends. Cancellation is read off ctx alone,
// between units: if ctx ended, each key led for a unit that never ran is
// landed with its cause (released, nothing stored) and ctx's error is the
// run's; otherwise every failure is a value in out. It returns how many
// goroutines computed.
func (s *Session) runGrid(ctx context.Context, cells []gridCell, out []Outcome, slots int,
	compute func(ctx context.Context, cells []gridCell, miss []int, out []Outcome), done func(i int)) (int, error) {
	type keyed struct {
		idx int
		key string
	}
	var ks []keyed
	var miss []int
	lands := make([]func(Shard, error), len(cells))
	for i := range cells {
		switch {
		case out[i].Err != nil:
		case s.cache == nil:
			miss = append(miss, i)
		default:
			ks = append(ks, keyed{i, ShardCacheKey(cells[i].spec, cells[i].cfg)})
		}
	}
	slices.SortFunc(ks, func(a, b keyed) int { return strings.Compare(a.key, b.key) })
	for k, m := range ks {
		if k > 0 && m.key == ks[k-1].key {
			continue
		}
		sh, hit, land, err := resolveShard(ctx, s.cache, m.key, cells[m.idx].spec, cells[m.idx].cfg)
		if err == nil && !hit {
			miss, lands[m.idx] = append(miss, m.idx), land
			continue
		}
		out[m.idx] = Outcome{Shard: sh, Err: err}
		done(m.idx)
	}
	slices.Sort(miss)

	units := planShards(cells, miss, slots)
	next := make(chan []int, len(units))
	for _, u := range units {
		next <- u
	}
	close(next)
	pool := min(s.workers, len(units))
	var wg sync.WaitGroup
	for w := pool; w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for unit := range next {
				if ctx.Err() != nil || s.gate.acquire(ctx, len(unit)) != nil {
					return
				}
				compute(ctx, cells, unit, out)
				s.gate.release()
				for _, i := range unit {
					if land := lands[i]; land != nil {
						land(out[i].Shard, out[i].Err)
						lands[i] = nil
					}
					done(i)
				}
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		for _, land := range lands {
			if land != nil {
				land(Shard{}, context.Cause(ctx))
			}
		}
		return 0, err
	}
	for k := 1; k < len(ks); k++ {
		if ks[k].key == ks[k-1].key {
			out[ks[k].idx] = out[ks[k-1].idx]
			done(ks[k].idx)
		}
	}
	return pool, nil
}

// runLocal computes a unit's misses on this process: its coordinate's
// compiled program (the session's compile cache), then runGroup.
func (s *Session) runLocal(ctx context.Context, cells []gridCell, miss []int, out []Outcome) {
	sp := &cells[miss[0]].spec
	c, err := s.compiledFor(sp.Workload, sp.Synth)
	if err != nil {
		for _, i := range miss {
			out[i].Err = err
		}
		return
	}
	s.runGroup(ctx, c, cells, miss, out)
}

// runRemote computes a unit's misses through the session's runner, as one
// RunShards call. A runner that answers with the wrong number of outcomes
// fails every member it was sent.
func (s *Session) runRemote(ctx context.Context, cells []gridCell, miss []int, out []Outcome) {
	send := make([]ShardSpec, len(miss))
	for k, i := range miss {
		send[k] = cells[i].spec
	}
	res, err := s.runner.RunShards(ctx, send)
	if err == nil && len(res) != len(send) {
		err = fmt.Errorf("sim: runner answered %d outcomes for %d shards", len(res), len(send))
	}
	for k, i := range miss {
		if err != nil {
			out[i].Err = err
		} else {
			out[i] = res[k]
		}
	}
}

// runGroup is the one shard execution path: every shard the session
// computes — pooled grid cells and worker-protocol members alike — is a
// member of a group that shares one trace coordinate, and runs here, once
// runGrid has left it to be computed. The coordinate's stream is opened
// once (see stream) and fed, in a single pass, to every member's power-on
// observers (see unitState), on a state the session kept from an earlier
// unit of the same members where it has one. Shards are therefore
// order-independent and the grid is deterministic up to timing fields. Each
// member's outcome lands at its grid index in out.
func (s *Session) runGroup(ctx context.Context, c *trace.Compiled, cells []gridCell, group []int, out []Outcome) {
	cfgs := make([]ObserverConfig, len(group))
	keys := make([]string, len(group))
	for k, i := range group {
		cfgs[k], keys[k] = cells[i].cfg, cells[i].cfg.Key()
	}
	u := s.takeState(cfgs, keys, c.Program())
	defer s.keepState(u)
	// The pass is shared, so every shard of the group reports the same
	// instruction count and elapsed time: the one walk that fed them all.
	insts, elapsed, err := s.stream(ctx, &u.exec, c, &cells[group[0]].spec, u.feed)
	for k, i := range group {
		cell := &cells[i]
		var sh Shard
		perr := err
		if perr == nil {
			var res Result
			if res, perr = u.finish[k](); perr == nil {
				sh = Shard{
					Workload:  cell.spec.Workload,
					Seed:      cell.spec.Seed,
					Observer:  keys[k],
					Insts:     insts,
					ElapsedNS: elapsed.Nanoseconds(),
					Result:    res,
				}
			}
		}
		out[i] = Outcome{Shard: sh, Attempts: 1, Err: perr}
	}
}

// takeState returns a unit's state: a kept one with the unit's member keys,
// reset for it, or else a new one.
func (s *Session) takeState(cfgs []ObserverConfig, keys []string, p *program.Program) *unitState {
	s.statesMu.Lock()
	for i, u := range s.states {
		if slices.Equal(u.keys, keys) {
			s.states = slices.Delete(s.states, i, i+1)
			s.statesMu.Unlock()
			u.reset(cfgs, p)
			return u
		}
	}
	s.statesMu.Unlock()
	return newUnitState(cfgs, keys, p)
}

// keepState keeps a unit's state for a later unit, dropping the one kept
// longest when the session already keeps one per worker slot.
func (s *Session) keepState(u *unitState) {
	s.statesMu.Lock()
	defer s.statesMu.Unlock()
	if len(s.states) == s.workers {
		s.states = slices.Delete(s.states, 0, 1)
	}
	s.states = append(s.states, u)
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
func (s *Session) stream(ctx context.Context, e *trace.Executor, c *trace.Compiled, spec *ShardSpec, obs trace.Observer) (insts int64, elapsed time.Duration, err error) {
	if s.traces == nil {
		start := time.Now() //repolint:allow nodeterminism shard elapsed_ns timing field, excluded from goldens
		insts, err = generate(ctx, e, c, spec, obs)
		return insts, time.Since(start), err //repolint:allow nodeterminism shard elapsed_ns timing field, excluded from goldens
	}
	tr, _, err := s.traces.Do(ctx, traceKey(spec.Workload, spec.Synth, spec.Seed, spec.Insts), func() (*replay.Trace, error) {
		// The recorder sees exactly what a live run's observers would:
		// every emitted lane in program order.
		rec := replay.NewRecorder()
		rec.Reserve(int(spec.Insts))
		if _, err := generate(ctx, e, c, spec, rec); err != nil {
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

// generate runs one live generation pass for the spec's coordinate on e,
// reset for it as a fresh compiled executor, and returns the instructions
// emitted. The context is polled at region granularity.
func generate(ctx context.Context, e *trace.Executor, c *trace.Compiled, spec *ShardSpec, obs trace.Observer) (int64, error) {
	e.Reset(c, spec.Seed)
	e.SetContext(ctx)
	e.Attach(obs)
	err := e.Run(spec.Insts)
	return e.Emitted(), err
}
