// Package trace executes a program model and emits the dynamic instruction
// stream to registered observers — the equivalent of Pin driving pintools in
// the paper's methodology. Observers are the analysis routines (package
// analysis) and hardware-structure simulators (packages bpred, btb, icache);
// several observers can share one pass over the stream, just as several
// pintool analysis callbacks share one instrumented run. All of them act on
// control-flow events and the byte ranges between them (the footprint
// collector also on the instruction sizes within a range), so the unit of
// the stream is the lane (isa.Lane): a batch as its fetch runs plus every
// instruction's size. Lane consumers sit behind a Feed (lane.go).
//
// The executor has two execution engines over the same program model:
//
//   - Run compiles the structured program once into a flat threaded-code op
//     array (see compile.go) and drives it with a tight loop that renders
//     lanes of up to BatchSize instructions directly — a block extends the
//     open run or opens one, a branch ends it — for the attached
//     LaneConsumers; an observer that is not one gets a shared Expand of
//     each lane as a batch. This is the production path.
//   - RunReference walks the program tree recursively and delivers every
//     instruction through a virtual per-instruction Observe call. It is the
//     retained reference implementation: slower, but structurally identical
//     to the model definition, and used by tests and benchmarks to prove the
//     compiled path emits a bit-identical stream.
//
// Both engines are deterministic: for a fixed program and seed, every run
// emits a bit-identical stream regardless of engine, batch boundaries, or
// how many observers watch it.
package trace

import (
	"context"
	"fmt"

	"rebalance/internal/isa"
	"rebalance/internal/program"
	"rebalance/internal/rng"
)

// Observer consumes the dynamic instruction stream one instruction at a
// time.
type Observer interface {
	// Observe is called once per dynamic instruction, in program order.
	Observe(in isa.Inst)
}

// BatchObserver consumes the dynamic instruction stream in program-order
// batches. Batches hold at most BatchSize instructions, never mix serial and
// parallel sections (the executor flushes at region boundaries), and the
// slice is reused after the call returns — observers must not retain it. On
// the compiled path and in replay a batch is the Expand of a lane.
type BatchObserver interface {
	ObserveBatch(batch []isa.Inst)
}

// ObserverFunc adapts a function to the Observer interface.
type ObserverFunc func(in isa.Inst)

// Observe implements Observer.
func (f ObserverFunc) Observe(in isa.Inst) { f(in) }

// ObserveBatch implements BatchObserver by calling f per instruction.
func (f ObserverFunc) ObserveBatch(batch []isa.Inst) {
	for i := range batch {
		f(batch[i])
	}
}

// AsBatch returns o's batch interface: o itself when it implements
// BatchObserver, otherwise a per-instruction loop over o.Observe. It is the
// one promotion rule for every delivery path — Executor.Attach and
// replay.Deliver, for the observers that are not LaneConsumers — so an
// observer sees the same calls live and replayed.
func AsBatch(o Observer) BatchObserver {
	if bo, ok := o.(BatchObserver); ok {
		return bo
	}
	return ObserverFunc(o.Observe)
}

// BatchSize bounds the instructions in one lane of the executor, and so in
// one expanded batch. The lane is flushed before a block that would pass the
// bound, at region boundaries, and when a run's instruction budget is
// exhausted.
const BatchSize = 4096

// maxCallDepth bounds the synthetic call stack; the structured program
// model cannot recurse, so hitting this indicates a model bug.
const maxCallDepth = 1024

// Executor walks a laid-out program and emits its instruction stream.
type Executor struct {
	prog      *program.Program
	seed      uint64
	observers []Observer

	// Per-branch-site private RNG streams, seeded lazily (a zero RNG is
	// one not yet seeded: a seeded one is never zero). Keyed by the dense
	// site ID so the stream a site sees is independent of every other
	// site's consumption.
	siteRNG []rng.RNG
	// Per-site dynamic execution counts (input to Behavior models).
	siteCount []uint64
	// Per-loop execution counts, keyed by the loop back-edge's site ID.
	loopCount []uint64
	// hist is the global conditional-branch history register
	// (bit 0 = most recent outcome, 1 = taken).
	hist uint64
	// emitted counts dynamic instructions emitted so far.
	emitted int64
	// budget is the emission target for the current Run.
	budget int64
	// serial tags instructions with the current phase (reference engine;
	// the compiled engine sets its lane's Phase).
	serial bool
	// stack holds return addresses for calls in flight (reference engine).
	stack []isa.Addr
	err   error
	// ctx, when set via SetContext, is polled at region granularity so a
	// cancelled run aborts promptly instead of draining its whole budget.
	ctx context.Context

	// Compiled-engine state.
	compiled *Compiled
	laneObs  []LaneConsumer  // attached observers that take the lane itself
	batchObs []BatchObserver // the rest: they share one Expand per flush
	lane     isa.Lane        // emission buffer, at most BatchSize instructions
	open     bool            // the lane's last run has not met its branch
	batch    []isa.Inst      // the lane expanded, only if batchObs is non-empty
	loopLeft []int64         // per compiled-loop-slot remaining iterations
	frames   []frame         // call frames in flight
}

// frame is one call in flight in the compiled engine.
type frame struct {
	resume int32 // op index to continue at after the return
	ret    isa.Addr
}

// NewExecutor builds an executor for a laid-out program. The seed isolates
// the run's stochastic choices; use the same seed to replay a stream.
func NewExecutor(p *program.Program, seed uint64) *Executor {
	e := &Executor{}
	e.reset(p, nil, seed)
	return e
}

// NewCompiledExecutor builds an executor that reuses an already-compiled
// program. A Compiled is immutable after Compile returns, so any number of
// executors (across goroutines) can share one — the sweep harness compiles
// each workload once and fans out.
func NewCompiledExecutor(c *Compiled, seed uint64) *Executor {
	e := &Executor{}
	e.Reset(c, seed)
	return e
}

// Reset readies the executor, whatever it ran before (a cancelled run
// too), to run c at seed exactly as NewCompiledExecutor(c, seed) would:
// no observers, nothing emitted, every site and loop at its first visit.
// The buffers it grew — the lane, the per-site and per-loop slices, the
// call frames — are kept, so a worker that runs stream after stream
// allocates them once.
func (e *Executor) Reset(c *Compiled, seed uint64) { e.reset(c.prog, c, seed) }

func (e *Executor) reset(p *program.Program, c *Compiled, seed uint64) {
	clear(e.observers)
	clear(e.laneObs)
	clear(e.batchObs)
	*e = Executor{
		prog:      p,
		seed:      seed,
		siteRNG:   zeroed(e.siteRNG, p.NumSites),
		siteCount: zeroed(e.siteCount, p.NumSites),
		loopCount: zeroed(e.loopCount, p.NumSites),
		compiled:  c,
		observers: e.observers[:0],
		laneObs:   e.laneObs[:0],
		batchObs:  e.batchObs[:0],
		lane:      isa.Lane{Runs: e.lane.Runs[:0], Sizes: e.lane.Sizes[:0]},
		batch:     e.batch[:0],
		loopLeft:  e.loopLeft[:0],
		frames:    e.frames[:0],
		stack:     e.stack[:0],
	}
}

// zeroed returns s resized to n zero elements, reusing its array when it
// is large enough.
func zeroed[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// Attach registers observers for subsequent runs. On the compiled path an
// observer that implements LaneConsumer receives the lanes themselves; the
// rest receive each lane expanded to a batch, natively if they implement
// BatchObserver and through a per-instruction loop otherwise.
func (e *Executor) Attach(obs ...Observer) {
	for _, o := range obs {
		e.observers = append(e.observers, o)
		if lc, ok := o.(LaneConsumer); ok {
			e.laneObs = append(e.laneObs, lc)
		} else {
			e.batchObs = append(e.batchObs, AsBatch(o))
		}
	}
}

// Emitted returns the number of dynamic instructions emitted so far.
func (e *Executor) Emitted() int64 { return e.emitted }

// SetContext arms run cancellation: both engines poll ctx at region
// granularity (a few thousand instructions) and abort with ctx.Err() once
// it is cancelled. The check is an atomic load amortized over a region, so
// it costs nothing on the hot path. A nil ctx (the default) disables
// polling. An executor whose run was cancelled is left mid-stream and must
// not be reused.
func (e *Executor) SetContext(ctx context.Context) {
	// A nil Done channel means the context can never be cancelled, per the
	// context.Context contract — true for Background and TODO but equally
	// for value-only contexts derived from them. The old identity
	// comparison (ctx == context.Background()) missed those derivations
	// and would have been fooled by any wrapper comparing equal to the
	// sentinels; Done() == nil asks the context itself.
	if ctx == nil || ctx.Done() == nil {
		ctx = nil // never fires; skip the per-region poll entirely
	}
	e.ctx = ctx
}

// cancelled polls the armed context, recording its error once it fires.
func (e *Executor) cancelled() bool {
	if e.ctx == nil {
		return false
	}
	if err := e.ctx.Err(); err != nil {
		e.fail(err)
		return true
	}
	return false
}

// Run emits approximately target dynamic instructions by cycling through
// the program's region schedule, using the compiled engine. Emission stops
// at the first region boundary after the target is reached, so the stream
// always ends in a consistent program state; the overshoot is at most one
// region's worth of instructions.
//
// The program is compiled on first use (or shared via NewCompiledExecutor);
// compilation validates the program and fails on a malformed model.
func (e *Executor) Run(target int64) error {
	if target <= 0 {
		return fmt.Errorf("trace: non-positive instruction target %d", target)
	}
	if e.prog.NumSites == 0 {
		return fmt.Errorf("trace: program %q not laid out", e.prog.Name)
	}
	if e.compiled == nil {
		c, err := Compile(e.prog)
		if err != nil {
			return err
		}
		e.compiled = c
	}
	if len(e.loopLeft) < e.compiled.numLoops {
		e.loopLeft = zeroed(e.loopLeft, e.compiled.numLoops)
	}
	if e.lane.Sizes == nil {
		// A lane holds one run per 7 to 10 instructions on the built-in
		// workloads; a branchier stream grows Runs by appending.
		e.lane.Sizes = make([]uint8, 0, BatchSize)
		e.lane.Runs = make([]isa.Run, 0, BatchSize/8)
	}
	e.budget = e.emitted + target
	for e.emitted < e.budget && e.err == nil {
		for ri, r := range e.prog.Regions {
			if e.emitted >= e.budget || e.err != nil {
				break
			}
			e.lane.Phase = 1
			if r.Serial {
				e.lane.Phase = 0
			}
			for w := 0; w < r.Weight; w++ {
				if e.cancelled() {
					break
				}
				e.runOps(e.compiled.regionStart[ri])
				if e.emitted >= e.budget || e.err != nil {
					break
				}
			}
			// Region boundary: flush so lanes never mix phases.
			e.flush()
		}
	}
	e.flush()
	return e.err
}

// flush delivers the buffered lane — to the lane consumers as it is, to the
// batch observers expanded once — and resets it. An open run ends with it.
func (e *Executor) flush() {
	if len(e.lane.Sizes) == 0 {
		return
	}
	e.lane.Insts = len(e.lane.Sizes)
	for _, c := range e.laneObs {
		c.ConsumeLane(&e.lane)
	}
	if len(e.batchObs) > 0 {
		e.batch = Expand(&e.lane, e.batch)
		for _, o := range e.batchObs {
			o.ObserveBatch(e.batch)
		}
	}
	e.lane.Runs, e.lane.Sizes, e.open = e.lane.Runs[:0], e.lane.Sizes[:0], false
}

// RunReference emits approximately target dynamic instructions with the
// retained tree-walk engine and per-instruction observer dispatch. Stream
// and observer results are bit-identical to Run for the same program and
// seed; the engine exists as the executable specification the compiled path
// is tested against, and as the baseline its speedup is measured against.
func (e *Executor) RunReference(target int64) error {
	if target <= 0 {
		return fmt.Errorf("trace: non-positive instruction target %d", target)
	}
	if e.prog.NumSites == 0 {
		return fmt.Errorf("trace: program %q not laid out", e.prog.Name)
	}
	e.budget = e.emitted + target
	for e.emitted < e.budget && e.err == nil {
		for _, r := range e.prog.Regions {
			if e.emitted >= e.budget || e.err != nil {
				break
			}
			e.serial = r.Serial
			for w := 0; w < r.Weight; w++ {
				if e.cancelled() {
					break
				}
				e.exec(r.Body)
				if e.emitted >= e.budget || e.err != nil {
					break
				}
			}
		}
	}
	return e.err
}

// rngFor returns the site's private RNG, creating it on first use. The
// stream depends only on the run seed and the site ID; derivation goes
// through rng.NewStream's SplitMix64 mixing so nearby site IDs cannot
// produce correlated streams.
func (e *Executor) rngFor(id int) *rng.RNG {
	r := &e.siteRNG[id]
	if *r == (rng.RNG{}) {
		*r = *rng.NewStream(e.seed, uint64(id))
	}
	return r
}

// emit delivers one instruction to every observer (reference engine).
func (e *Executor) emit(in isa.Inst) {
	in.Serial = e.serial
	for _, o := range e.observers {
		o.Observe(in)
	}
	e.emitted++
}

// emitBlock emits a straight-line run of non-branch instructions.
func (e *Executor) emitBlock(b *program.Block) {
	pc := b.Addr
	for _, sz := range b.Sizes {
		e.emit(isa.Inst{PC: pc, Size: sz, Kind: isa.KindOther})
		pc += isa.Addr(sz)
	}
}

// emitBranch emits a resolved branch instance and updates global history
// for conditional branches.
func (e *Executor) emitBranch(br *program.Branch, taken bool, target isa.Addr) {
	e.emit(isa.Inst{PC: br.PC, Size: br.Size, Kind: br.Kind, Taken: taken, Target: target})
	if br.Kind == isa.KindCondDirect {
		e.hist <<= 1
		if taken {
			e.hist |= 1
		}
	}
	e.siteCount[br.ID]++
}

// exec walks one node, emitting its dynamic instructions.
func (e *Executor) exec(n program.Node) {
	// Budget checks at construct granularity keep the emitted stream
	// structurally consistent without per-instruction overhead.
	if e.err != nil || e.emitted >= e.budget {
		return
	}
	switch v := n.(type) {
	case nil:
	case *program.Seq:
		for _, c := range v.Nodes {
			if e.emitted >= e.budget || e.err != nil {
				return
			}
			e.exec(c)
		}
	case *program.Straight:
		e.emitBlock(v.Block)
	case *program.Loop:
		id := v.Back.ID
		n := v.Iters.Next(e.loopCount[id], e.rngFor(id))
		e.loopCount[id]++
		for i := 0; i < n; i++ {
			e.exec(v.Body)
			cont := i < n-1
			if e.emitted >= e.budget || e.err != nil {
				cont = false // close the loop cleanly when out of budget
			}
			e.emitBranch(v.Back, cont, v.Back.Target)
			if !cont {
				break
			}
		}
	case *program.If:
		taken := v.Cond.Behavior.Next(e.siteCount[v.Cond.ID], e.hist, e.rngFor(v.Cond.ID))
		e.emitBranch(v.Cond, taken, v.Cond.Target)
		if taken {
			if v.Else != nil {
				e.exec(v.Else)
			}
			return
		}
		e.exec(v.Then)
		if v.Else != nil {
			e.emitBranch(v.SkipJump, true, v.SkipJump.Target)
		}
	case *program.Call:
		e.call(v.Site, v.Callee)
	case *program.IndirectCall:
		var callee *program.Func
		if len(v.Pattern) > 0 {
			callee = v.Callees[v.Pattern[e.siteCount[v.Site.ID]%uint64(len(v.Pattern))]]
		} else {
			callee = v.Callees[e.rngFor(v.Site.ID).Choice(v.Weights)]
		}
		e.call(v.Site, callee)
	case *program.Switch:
		idx := e.rngFor(v.Site.ID).Choice(v.Weights)
		e.emitBranch(v.Site, true, v.CaseAddrs[idx])
		e.exec(v.Cases[idx])
		e.emitBranch(v.CaseJumps[idx], true, v.CaseJumps[idx].Target)
	case *program.Syscall:
		// Control returns to the next instruction; the kernel's
		// instructions are not part of the user-level stream Pin sees
		// by default.
		e.emitBranch(v.Site, false, 0)
	default:
		e.fail(fmt.Errorf("trace: unknown node type %T", n))
	}
}

// call emits a call, executes the callee, and emits its return.
func (e *Executor) call(site *program.Branch, callee *program.Func) {
	if len(e.stack) >= maxCallDepth {
		e.fail(fmt.Errorf("trace: call depth exceeds %d (recursive model?)", maxCallDepth))
		return
	}
	retAddr := site.PC + isa.Addr(site.Size)
	e.emitBranch(site, true, callee.Entry)
	e.stack = append(e.stack, retAddr)
	e.exec(callee.Body)
	e.stack = e.stack[:len(e.stack)-1]
	e.emitBranch(callee.Ret, true, retAddr)
}

func (e *Executor) fail(err error) {
	if e.err == nil {
		e.err = err
	}
}

// Run is a convenience that executes prog for about target instructions,
// delivering the stream to the given observers via the compiled engine.
func Run(p *program.Program, seed uint64, target int64, obs ...Observer) error {
	e := NewExecutor(p, seed)
	e.Attach(obs...)
	return e.Run(target)
}
