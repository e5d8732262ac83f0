package sim

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"rebalance/internal/program"
	"rebalance/internal/sim/shardcache"
	"rebalance/internal/trace"
	"rebalance/internal/trace/replay"
	"rebalance/internal/workload"
	"rebalance/internal/workload/synth"
)

// Session executes Specs. It is safe for concurrent use: compiled
// workload programs are built once per session and shared by every run
// (trace.Compiled is immutable), which is what lets a serving front-end
// like cmd/simd run many requests against one warm cache.
type Session struct {
	workers   int
	maxShards int
	runner    ShardRunner
	cache     *shardcache.Cache
	traces    *replay.Store

	mu       sync.Mutex
	compiled map[string]*compileEntry
	// synthKeys tracks the compiled map's synth entries in insertion
	// order, the FIFO behind maxSynthCompiled.
	synthKeys []string
}

// compileEntry caches one workload's compilation; the once gate means
// concurrent runs naming the same workload compile it exactly once while
// the session lock is held only for map access.
type compileEntry struct {
	once sync.Once
	c    *trace.Compiled
	err  error
}

// NewSession returns a session running up to workers shards concurrently;
// workers < 1 selects GOMAXPROCS.
func NewSession(workers int) *Session {
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Session{workers: workers, compiled: map[string]*compileEntry{}}
}

// SetMaxShards bounds how many {workload x seed x observer-config} shards
// one Run may expand to (0 = unlimited, the default). Serving front-ends
// set it so a single request cannot allocate an unbounded grid; the limit
// is enforced before the grid is built and violations report ErrInvalidSpec.
func (s *Session) SetMaxShards(n int) { s.maxShards = n }

// SetRunner has every subsequent Run compute its shards through r instead
// of the session's in-process worker pool — the seam the dispatch layer
// plugs into to spread a grid across local and remote backends. The
// session still resolves the grid against its result cache, plans its
// misses and owns every outcome; r receives each unit as one RunShards call.
// A nil r restores the built-in local pool. Shard results and their merge
// order are runner-independent, so a Report is bit-identical (up to timing
// fields) whichever runner produced it. Set before the first Run; the field
// is not synchronized against concurrent Runs.
func (s *Session) SetRunner(r ShardRunner) { s.runner = r }

// Compiled returns the session-cached compiled program for the named
// built-in workload, building and compiling it on first use.
func (s *Session) Compiled(name string) (*trace.Compiled, error) {
	return s.compile(name, false, func() (*program.Program, error) { return workload.Build(name) })
}

// maxSynthCompiled bounds how many distinct inline scenarios a session
// keeps compiled at once. Built-in workloads are a fixed set, but the
// synth key space is open-ended — a long-lived simd worker serving knob
// sweeps must not grow its compile cache without bound — so the synth
// entries evict FIFO past this limit (a compile is milliseconds; an
// evicted scenario that recurs just recompiles).
const maxSynthCompiled = 64

// CompiledSynth returns the session-cached compiled program for an inline
// synth/v1 scenario. The cache key is the scenario's canonical form, not
// its name: two runs may reuse one name for different knobs without
// aliasing, and equal scenarios share one compilation however they are
// spelled.
func (s *Session) CompiledSynth(p *synth.Params) (*trace.Compiled, error) {
	canon, err := p.CanonicalJSON()
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalidSpec, err)
	}
	// Built-in workload names cannot contain NUL, so the key space
	// cannot collide with Compiled's.
	key := "synth\x00" + string(canon)
	params := *p
	return s.compile(key, true, func() (*program.Program, error) { return synth.Build(params) })
}

// compiledFor returns the session-cached compiled program of a shard's
// workload: its inline scenario p, or else the built-in workload w.
func (s *Session) compiledFor(w string, p *synth.Params) (*trace.Compiled, error) {
	if p != nil {
		return s.CompiledSynth(p)
	}
	return s.Compiled(w)
}

// compile is the shared once-per-key compilation cache behind Compiled
// and CompiledSynth. Callers still holding an entry's *trace.Compiled
// are unaffected by eviction — entries are immutable once built.
func (s *Session) compile(key string, isSynth bool, build func() (*program.Program, error)) (*trace.Compiled, error) {
	s.mu.Lock()
	e := s.compiled[key]
	if e == nil {
		e = &compileEntry{}
		s.compiled[key] = e
		if isSynth {
			s.synthKeys = append(s.synthKeys, key)
			if len(s.synthKeys) > maxSynthCompiled {
				delete(s.compiled, s.synthKeys[0])
				s.synthKeys = s.synthKeys[1:]
			}
		}
	}
	s.mu.Unlock()
	e.once.Do(func() {
		prog, err := build()
		if err != nil {
			e.err = err
			return
		}
		e.c, e.err = trace.Compile(prog)
	})
	return e.c, e.err
}

// Run validates and executes the spec, returning the sim/v1 report. Shard
// order in the report is deterministic (workload-major, then observer
// configuration, then seed) regardless of scheduling. The context is
// checked between shards; an already-running shard completes.
func (s *Session) Run(ctx context.Context, spec *Spec) (*Report, error) {
	norm, err := spec.normalized(s.maxShards)
	if err != nil {
		return nil, err
	}
	configs, err := expandObservers(norm.Observers)
	if err != nil {
		return nil, err
	}
	nShards := len(norm.Workloads) * len(configs) * len(norm.Seeds)
	if s.maxShards > 0 && nShards > s.maxShards {
		return nil, fmt.Errorf("%w: %d shards ({%d workloads x %d observer configs x %d seeds}) exceed the session's shard limit %d",
			ErrInvalidSpec, nShards, len(norm.Workloads), len(configs), len(norm.Seeds), s.maxShards)
	}

	// Inline synth scenarios, by (canonical) name.
	synthByName := make(map[string]*synth.Params, len(norm.Synth))
	for i := range norm.Synth {
		synthByName[norm.Synth[i].Name] = &norm.Synth[i]
	}

	cells := gridCells(norm, configs, synthByName)

	// A local run computes its misses on the session pool, compiling before
	// the wall clock starts, so WallNS (and the derived sweep throughput)
	// measures execution, not a cold compile cache. A dispatched run hands
	// each unit's misses to the runner as one call, all units at once (the
	// Dispatcher's MaxInFlight is the one bound), and skips local compilation:
	// each worker compiles from the wire bytes against its own cache. Remote
	// results come decoded, so the merge phase cannot tell them from local ones.
	compute, pool := s.runRemote, len(cells)
	if s.runner == nil {
		compute, pool = s.runLocal, s.workers
		for _, w := range norm.Workloads {
			if _, err := s.compiledFor(w, synthByName[w]); err != nil {
				return nil, fmt.Errorf("%w: %v", ErrInvalidSpec, err)
			}
		}
	}
	start := time.Now() //repolint:allow nodeterminism Report.WallNS wall-clock timing field, excluded from goldens
	// One path for either compute (runGrid), which names each failure by its
	// cell and delivers every outcome to the context's progress hook (a no-op
	// without one; ShardDone drops the members of a cancelled pass).
	var workers int
	out, err := decide(ctx, norm, cells, func(ctx context.Context) ([]Outcome, error) {
		out := make([]Outcome, len(cells))
		var err error
		workers, err = s.runGrid(ctx, cells, out, s.workers, pool, compute, func(i int) {
			if out[i].Err != nil {
				out[i].Err = fmt.Errorf("sim: shard {%s %s seed %d}: %w",
					cells[i].spec.Workload, cells[i].cfg.Key(), cells[i].spec.Seed, out[i].Err)
			}
			ShardDone(ctx, out[i].Shard, out[i].Err)
		})
		return out, err
	})
	if err != nil {
		return nil, err
	}
	wall := time.Since(start) //repolint:allow nodeterminism Report.WallNS wall-clock timing field, excluded from goldens
	// Workers reports the local pool concurrency, which the plan bounds (0
	// for an all-hits grid, fewer than the session's workers for a grid of
	// fewer units); a dispatched run's concurrency belongs to the runner, so
	// the field is 0 there rather than a fabricated figure.
	if s.runner != nil {
		workers = 0
	}

	// A cell with an Err is only ever present under AllowPartial: it is
	// recorded in failed_shards and excluded from the report and the merge.
	rep := &Report{
		Schema:  SchemaV1,
		Spec:    norm,
		Workers: workers,
		WallNS:  wall.Nanoseconds(),
		Shards:  make([]Shard, 0, len(out)),
	}
	for i := range out {
		if err := out[i].Err; err != nil {
			rep.FailedShards = append(rep.FailedShards, FailedShard{
				Workload: cells[i].spec.Workload,
				Seed:     cells[i].spec.Seed,
				Observer: cells[i].cfg.Key(),
				Attempts: out[i].Attempts,
				Error:    err.Error(),
			})
			continue
		}
		rep.Shards = append(rep.Shards, out[i].Shard)
		rep.TotalInsts += out[i].Shard.Insts
	}

	// Merge each configuration's per-seed shards, in seed order, into one
	// result per {workload, observer-config}. The grid is laid out
	// seed-minor, so each merge group is a contiguous run of out; failed
	// seeds are skipped, and a group with no survivors gets no merged entry.
	si := 0
	for _, w := range norm.Workloads {
		for _, cfg := range configs {
			acc := cfg.NewResult()
			merged := 0
			for range norm.Seeds {
				if out[si].Err == nil {
					if err := acc.Merge(out[si].Shard.Result); err != nil {
						return nil, fmt.Errorf("sim: merging %s/%s: %w", w, cfg.Key(), err)
					}
					merged++
				}
				si++
			}
			if merged == 0 {
				continue
			}
			rep.Merged = append(rep.Merged, Merged{
				Workload: w,
				Observer: cfg.Key(),
				Seeds:    merged,
				Result:   acc,
			})
		}
	}
	return rep, nil
}

// gridCells expands a normalized spec into its shard grid — workload-major,
// then observer configuration, then seed: the order the report, the merge
// and every runner's index alignment share. Each cell is built once, as
// the ShardSpec every path (cache key, trace key, dispatch) reads.
func gridCells(norm *Spec, configs []ObserverConfig, synthByName map[string]*synth.Params) []gridCell {
	cells := make([]gridCell, 0, len(norm.Workloads)*len(configs)*len(norm.Seeds))
	for _, w := range norm.Workloads {
		for _, cfg := range configs {
			spec := ShardSpec{
				Workload: w,
				Synth:    synthByName[w],
				Insts:    norm.Insts,
				Engine:   norm.Engine,
				Observer: cfg.Spec(),
			}
			for _, seed := range norm.Seeds {
				spec.Seed = seed
				cells = append(cells, gridCell{spec: spec, cfg: cfg})
			}
		}
	}
	return cells
}

// decide runs the grid and applies the run's failure policy — the one
// place abort-vs-degrade is decided. Runners only report: run returns one
// Outcome per cell. A strict run (the default) chains its own ShardDone
// hook in front of the caller's and cancels the grid on the first failure
// it sees, then fails with that error (or, from a runner that delivered
// nothing, with the first failed outcome's). Under AllowPartial the grid
// runs to the end and failures stay in the outcomes — unless every shard
// failed, which stays an error: an empty report is not a degraded one.
// Cancellation aborts either way. Every completed shard's identity fields
// are cross-checked against its cell.
func decide(ctx context.Context, norm *Spec, cells []gridCell, run func(context.Context) ([]Outcome, error)) ([]Outcome, error) {
	var abort atomic.Pointer[error]
	rctx := ctx
	if !norm.AllowPartial {
		cctx, cancel := context.WithCancel(ctx)
		defer cancel()
		rctx = WithShardDone(cctx, func(sh Shard, err error) {
			if err != nil && abort.CompareAndSwap(nil, &err) {
				cancel()
			}
			ShardDone(ctx, sh, err)
		})
	}
	out, err := run(rctx)
	if first := abort.Load(); first != nil {
		return nil, *first
	}
	if err != nil {
		return nil, err
	}
	var firstErr error
	failed := 0
	for i := range out {
		if err := out[i].Err; err != nil {
			if !norm.AllowPartial {
				return nil, err
			}
			failed++
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		sh, want := &out[i].Shard, &cells[i]
		if sh.Workload != want.spec.Workload || sh.Seed != want.spec.Seed || sh.Observer != want.cfg.Key() {
			return nil, fmt.Errorf("sim: runner shard %d is {%s %s seed %d}, want {%s %s seed %d}",
				i, sh.Workload, sh.Observer, sh.Seed, want.spec.Workload, want.cfg.Key(), want.spec.Seed)
		}
	}
	if failed == len(cells) {
		return nil, fmt.Errorf("sim: all %d shards failed: %w", len(cells), firstErr)
	}
	return out, nil
}
