// Threaded-code compilation of the structured program model.
//
// The reference engine re-discovers the program's shape on every pass: each
// dynamic instruction costs a recursive descent through Seq/Loop/If nodes,
// an interface type-switch on heap-allocated node types, and a virtual
// Observe call per observer. Compile lowers a validated program.Program once
// into a flat op array that the executor drives with a tight loop:
//
//   - straight-line blocks are pre-rendered into ready-made []isa.Inst
//     slices (one per phase variant) that emission memcpys into the batch
//     buffer;
//   - loops become a trip-count op plus a back-edge op with an explicit
//     branch-back index, with per-loop iteration state in a dense slot
//     array;
//   - if/else, switch and call constructs become ops holding resolved jump
//     indices, so control transfer is an integer assignment;
//   - calls push {resume-op, return-address} frames on a flat stack, and
//     every function body is compiled exactly once and shared by all of its
//     call sites (direct and indirect).
//
// Budget semantics mirror the reference engine exactly: every op that
// corresponds to a construct *entry* checks the budget and, when exhausted,
// jumps to its skip index (the op just past the construct), while the
// closing ops a construct emits unconditionally during unwind — loop
// back-edges, else-skip jumps, switch case jumps, returns — carry no check.
// The cascade of entry-skips therefore unwinds the program exactly the way
// the recursive engine's per-node budget checks do, which is what makes the
// two engines' streams bit-identical.
package trace

import (
	"fmt"

	"rebalance/internal/isa"
	"rebalance/internal/program"
)

// opcode discriminates the threaded-code ops.
type opcode uint8

const (
	// opHalt ends a region body.
	opHalt opcode = iota
	// opBlock emits pre-rendered block a; skip = fall through.
	opBlock
	// opLoop computes the trip count for loop slot a using iter model b;
	// skip jumps past the matching opLoopBack.
	opLoop
	// opLoopBack decrements slot a and either branches back to body op b
	// (emitting the back-edge taken) or exits (not taken).
	opLoopBack
	// opIf resolves the condition; taken jumps to op a (else/join), not
	// taken falls through into the then path; skip jumps past the construct.
	opIf
	// opJump emits its (unconditional, always-taken) branch and jumps to op
	// a. Used for else-skip jumps and switch case jumps; never budget
	// checked, matching the reference engine's unconditional closings.
	opJump
	// opCall emits the call branch, pushes a frame, and jumps to function
	// start a; target holds the callee entry address.
	opCall
	// opReturn pops a frame, emits the function's return branch, and
	// resumes the caller.
	opReturn
	// opIndirect resolves an indirect call through indirect meta a.
	opIndirect
	// opSwitch dispatches through switch meta a; skip jumps past the
	// construct (the join point).
	opSwitch
	// opSyscall emits the (never-taken) syscall instruction.
	opSyscall
)

// op is one threaded-code instruction. Operand meaning is per-opcode; skip
// is the op index executed instead when the instruction budget is already
// exhausted at this construct's entry.
type op struct {
	code   opcode
	a      int32
	b      int32
	skip   int32
	br     *program.Branch
	target isa.Addr
}

// renderedBlock caches a straight block's instruction run, pre-built per
// phase so emission is a bounds-checked copy. Variant 0 is parallel
// (Serial=false), variant 1 serial.
type renderedBlock struct {
	insts [2][]isa.Inst
}

// indirectMeta is the dispatch table of one indirect call site.
type indirectMeta struct {
	starts  []int32 // op index of each callee's body
	entries []isa.Addr
	weights []float64
	pattern []int32
}

// switchMeta is the dispatch table of one switch site.
type switchMeta struct {
	starts  []int32 // op index of each case body
	addrs   []isa.Addr
	weights []float64
}

// Compiled is a program lowered to threaded code. It is immutable after
// Compile returns and safe to share across any number of executors running
// concurrently; all mutable execution state lives in the Executor.
type Compiled struct {
	prog        *program.Program
	ops         []op
	regionStart []int32 // op index of each region's body
	blocks      []renderedBlock
	iters       []program.IterModel
	indirects   []indirectMeta
	switches    []switchMeta
	numLoops    int
}

// Program returns the source program.
func (c *Compiled) Program() *program.Program { return c.prog }

// Compile validates and lowers a laid-out program. The returned Compiled is
// read-only and shareable across goroutines.
func Compile(p *program.Program) (*Compiled, error) {
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("trace: compile %q: %w", p.Name, err)
	}
	cc := &compiler{
		out:       &Compiled{prog: p},
		funcStart: make(map[*program.Func]int32),
		enqueued:  make(map[*program.Func]bool),
	}
	// Seed the worklist with every declared function; calls discovered
	// while compiling may enqueue more. The worklist grows while iterating,
	// and each function's body is compiled exactly once, contiguously.
	for _, f := range p.Funcs {
		cc.enqueue(f)
	}
	for i := 0; i < len(cc.worklist); i++ {
		f := cc.worklist[i]
		cc.funcStart[f] = int32(len(cc.out.ops))
		cc.node(f.Body)
		cc.emit(op{code: opReturn, br: f.Ret})
	}
	for _, r := range p.Regions {
		cc.out.regionStart = append(cc.out.regionStart, int32(len(cc.out.ops)))
		cc.node(r.Body)
		cc.emit(op{code: opHalt})
	}
	// Call sites may reference functions compiled after them; resolve every
	// recorded site now that all starts are known.
	for _, pt := range cc.callPatches {
		cc.out.ops[pt.op].a = cc.funcStart[pt.f]
	}
	for _, pt := range cc.indirectPatches {
		cc.out.indirects[pt.meta].starts[pt.slot] = cc.funcStart[pt.f]
	}
	if cc.err != nil {
		return nil, fmt.Errorf("trace: compile %q: %w", p.Name, cc.err)
	}
	return cc.out, nil
}

type callPatch struct {
	op int32
	f  *program.Func
}

type indirectPatch struct {
	meta int32
	slot int32
	f    *program.Func
}

type compiler struct {
	out             *Compiled
	funcStart       map[*program.Func]int32
	enqueued        map[*program.Func]bool
	worklist        []*program.Func
	callPatches     []callPatch
	indirectPatches []indirectPatch
	err             error
}

func (cc *compiler) fail(err error) {
	if cc.err == nil {
		cc.err = err
	}
}

func (cc *compiler) enqueue(f *program.Func) {
	if f == nil || cc.enqueued[f] {
		return
	}
	cc.enqueued[f] = true
	cc.worklist = append(cc.worklist, f)
}

// emit appends one op and returns its index.
func (cc *compiler) emit(o op) int32 {
	cc.out.ops = append(cc.out.ops, o)
	return int32(len(cc.out.ops) - 1)
}

func (cc *compiler) here() int32 { return int32(len(cc.out.ops)) }

// renderBlock pre-builds both phase variants of a straight block.
func (cc *compiler) renderBlock(b *program.Block) int32 {
	var rb renderedBlock
	for variant := 0; variant < 2; variant++ {
		insts := make([]isa.Inst, len(b.Sizes))
		pc := b.Addr
		for i, sz := range b.Sizes {
			insts[i] = isa.Inst{PC: pc, Size: sz, Kind: isa.KindOther, Serial: variant == 1}
			pc += isa.Addr(sz)
		}
		rb.insts[variant] = insts
	}
	cc.out.blocks = append(cc.out.blocks, rb)
	return int32(len(cc.out.blocks) - 1)
}

// node lowers one construct (and its children) into ops.
func (cc *compiler) node(n program.Node) {
	switch v := n.(type) {
	case nil:
	case *program.Seq:
		for _, c := range v.Nodes {
			cc.node(c)
		}
	case *program.Straight:
		cc.emit(op{code: opBlock, a: cc.renderBlock(v.Block)})
	case *program.Loop:
		slot := int32(cc.out.numLoops)
		cc.out.numLoops++
		iterIdx := int32(len(cc.out.iters))
		cc.out.iters = append(cc.out.iters, v.Iters)
		head := cc.emit(op{code: opLoop, a: slot, b: iterIdx, br: v.Back})
		body := cc.here()
		cc.node(v.Body)
		cc.emit(op{code: opLoopBack, a: slot, b: body, br: v.Back})
		cc.out.ops[head].skip = cc.here()
	case *program.If:
		cond := cc.emit(op{code: opIf, br: v.Cond})
		cc.node(v.Then)
		if v.Else != nil {
			jmp := cc.emit(op{code: opJump, br: v.SkipJump})
			cc.out.ops[cond].a = cc.here() // taken => else path
			cc.node(v.Else)
			cc.out.ops[jmp].a = cc.here() // then path rejoins here
		} else {
			cc.out.ops[cond].a = cc.here() // taken => join
		}
		cc.out.ops[cond].skip = cc.here()
	case *program.Call:
		site := cc.emit(op{code: opCall, br: v.Site, target: v.Callee.Entry})
		cc.callPatches = append(cc.callPatches, callPatch{op: site, f: v.Callee})
		cc.enqueue(v.Callee)
	case *program.IndirectCall:
		mi := int32(len(cc.out.indirects))
		m := indirectMeta{
			starts:  make([]int32, len(v.Callees)),
			entries: make([]isa.Addr, len(v.Callees)),
			weights: v.Weights,
			pattern: make([]int32, len(v.Pattern)),
		}
		for k, f := range v.Callees {
			m.entries[k] = f.Entry
			cc.enqueue(f)
			cc.indirectPatches = append(cc.indirectPatches, indirectPatch{meta: mi, slot: int32(k), f: f})
		}
		for k, idx := range v.Pattern {
			m.pattern[k] = int32(idx)
		}
		cc.out.indirects = append(cc.out.indirects, m)
		cc.emit(op{code: opIndirect, a: mi, br: v.Site})
	case *program.Switch:
		mi := int32(len(cc.out.switches))
		cc.out.switches = append(cc.out.switches, switchMeta{
			starts:  make([]int32, len(v.Cases)),
			addrs:   v.CaseAddrs,
			weights: v.Weights,
		})
		site := cc.emit(op{code: opSwitch, a: mi, br: v.Site})
		jumps := make([]int32, len(v.Cases))
		for k, c := range v.Cases {
			cc.out.switches[mi].starts[k] = cc.here()
			cc.node(c)
			jumps[k] = cc.emit(op{code: opJump, br: v.CaseJumps[k]})
		}
		join := cc.here()
		for _, j := range jumps {
			cc.out.ops[j].a = join
		}
		cc.out.ops[site].skip = join
	case *program.Syscall:
		cc.emit(op{code: opSyscall, br: v.Site})
	default:
		cc.fail(fmt.Errorf("unknown node type %T", n))
	}
}

// appendInst buffers one instruction, flushing when the batch fills.
func (e *Executor) appendInst(in isa.Inst) {
	if len(e.batch) == cap(e.batch) {
		e.flush()
	}
	e.batch = append(e.batch, in)
	e.emitted++
}

// emitRendered copies a pre-rendered block into the batch buffer.
func (e *Executor) emitRendered(rb *renderedBlock) {
	src := rb.insts[e.serialIdx]
	for { //repolint:allow ctxpoll bounded: drains one pre-rendered block (<= one batch per iteration)
		if len(e.batch) == cap(e.batch) {
			e.flush()
		}
		n := copy(e.batch[len(e.batch):cap(e.batch)], src)
		e.batch = e.batch[:len(e.batch)+n]
		e.emitted += int64(n)
		if n == len(src) {
			return
		}
		src = src[n:]
	}
}

// emitBranchBatch buffers a resolved branch and updates history and site
// counts exactly as the reference engine's emitBranch does.
func (e *Executor) emitBranchBatch(br *program.Branch, taken bool, target isa.Addr) {
	e.appendInst(isa.Inst{PC: br.PC, Size: br.Size, Kind: br.Kind, Taken: taken, Target: target, Serial: e.serial})
	if br.Kind == isa.KindCondDirect {
		e.hist <<= 1
		if taken {
			e.hist |= 1
		}
	}
	e.siteCount[br.ID]++
}

// runOps drives the threaded code from start until the region's opHalt.
func (e *Executor) runOps(start int32) {
	ops := e.compiled.ops
	pc := start
	for { //repolint:allow ctxpoll bounded: one region of compiled ops; Run polls ctx at region boundaries
		o := &ops[pc]
		switch o.code {
		case opHalt:
			return
		case opBlock:
			if e.emitted >= e.budget {
				pc++
				continue
			}
			e.emitRendered(&e.compiled.blocks[o.a])
			pc++
		case opLoop:
			if e.emitted >= e.budget {
				pc = o.skip
				continue
			}
			id := o.br.ID
			n := e.compiled.iters[o.b].Next(e.loopCount[id], e.rngFor(id))
			e.loopCount[id]++
			if n < 1 {
				// A zero-trip model emits nothing, matching the reference
				// engine's for-loop that never runs (no back-edge either).
				pc = o.skip
				continue
			}
			e.loopLeft[o.a] = int64(n)
			pc++
		case opLoopBack:
			e.loopLeft[o.a]--
			cont := e.loopLeft[o.a] > 0
			if e.emitted >= e.budget || e.err != nil {
				cont = false // close the loop cleanly when out of budget
			}
			e.emitBranchBatch(o.br, cont, o.br.Target)
			if cont {
				pc = o.b
			} else {
				pc++
			}
		case opIf:
			if e.emitted >= e.budget {
				pc = o.skip
				continue
			}
			id := o.br.ID
			taken := o.br.Behavior.Next(e.siteCount[id], e.hist, e.rngFor(id))
			e.emitBranchBatch(o.br, taken, o.br.Target)
			if taken {
				pc = o.a
			} else {
				pc++
			}
		case opJump:
			e.emitBranchBatch(o.br, true, o.br.Target)
			pc = o.a
		case opCall:
			if e.emitted >= e.budget {
				pc++
				continue
			}
			if len(e.frames) >= maxCallDepth {
				e.fail(fmt.Errorf("trace: call depth exceeds %d (recursive model?)", maxCallDepth))
				return
			}
			ret := o.br.PC + isa.Addr(o.br.Size)
			e.emitBranchBatch(o.br, true, o.target)
			e.frames = append(e.frames, frame{resume: pc + 1, ret: ret})
			pc = o.a
		case opReturn:
			f := e.frames[len(e.frames)-1]
			e.frames = e.frames[:len(e.frames)-1]
			e.emitBranchBatch(o.br, true, f.ret)
			pc = f.resume
		case opIndirect:
			if e.emitted >= e.budget {
				pc++
				continue
			}
			if len(e.frames) >= maxCallDepth {
				e.fail(fmt.Errorf("trace: call depth exceeds %d (recursive model?)", maxCallDepth))
				return
			}
			m := &e.compiled.indirects[o.a]
			id := o.br.ID
			var k int
			if len(m.pattern) > 0 {
				k = int(m.pattern[e.siteCount[id]%uint64(len(m.pattern))])
			} else {
				k = e.rngFor(id).Choice(m.weights)
			}
			ret := o.br.PC + isa.Addr(o.br.Size)
			e.emitBranchBatch(o.br, true, m.entries[k])
			e.frames = append(e.frames, frame{resume: pc + 1, ret: ret})
			pc = m.starts[k]
		case opSwitch:
			if e.emitted >= e.budget {
				pc = o.skip
				continue
			}
			m := &e.compiled.switches[o.a]
			k := e.rngFor(o.br.ID).Choice(m.weights)
			e.emitBranchBatch(o.br, true, m.addrs[k])
			pc = m.starts[k]
		case opSyscall:
			if e.emitted >= e.budget {
				pc++
				continue
			}
			e.emitBranchBatch(o.br, false, 0)
			pc++
		}
	}
}
