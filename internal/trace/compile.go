// Threaded-code compilation of the structured program model.
//
// The reference engine re-discovers the program's shape on every pass: each
// dynamic instruction costs a recursive descent through Seq/Loop/If nodes,
// an interface type-switch on heap-allocated node types, and a virtual
// Observe call per observer. Compile lowers a validated program.Program once
// into a flat op array that the executor drives with a tight loop:
//
//   - straight-line blocks are pre-rendered into their lane form — start
//     address, byte length, instruction sizes — so emitting one extends the
//     open fetch run or opens the next, and copies only its sizes;
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
	// opBlock emits rendered block a into the lane; skip = fall through.
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

// renderedBlock is a straight block as the lane sees it: the bytes
// [addr, addr+bytes) in len(sizes) instructions, the last one at lastPC.
type renderedBlock struct {
	addr, lastPC isa.Addr
	bytes        uint32
	sizes        []uint8
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

// renderBlock pre-computes a straight block's lane form.
func (cc *compiler) renderBlock(b *program.Block) int32 {
	last := b.Sizes[len(b.Sizes)-1] // Validate rejected empty blocks
	cc.out.blocks = append(cc.out.blocks, renderedBlock{
		addr:   b.Addr,
		lastPC: b.Addr + isa.Addr(b.TotalBytes) - isa.Addr(last),
		bytes:  uint32(b.TotalBytes),
		sizes:  b.Sizes,
	})
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

// runEndingAt returns the lane's open run — the last one, when no branch
// has ended it — if it ends at addr, and nil otherwise.
func (e *Executor) runEndingAt(addr isa.Addr) *isa.Run {
	if e.open {
		if r := &e.lane.Runs[len(e.lane.Runs)-1]; r.Start+isa.Addr(r.Bytes) == addr {
			return r
		}
	}
	return nil
}

// appendRun adds a branchless span to the lane: it extends the open run
// when it starts where that run ends, and otherwise opens one (the open run,
// if any, just ends there — a run need not be maximal). The caller has made
// sure the lane has room.
func (e *Executor) appendRun(addr, lastPC isa.Addr, bytes uint32, sizes []uint8) {
	if r := e.runEndingAt(addr); r != nil {
		r.PC, r.Bytes, r.Insts = lastPC, r.Bytes+bytes, r.Insts+uint32(len(sizes))
	} else {
		e.lane.Runs = append(e.lane.Runs, isa.Run{Start: addr, PC: lastPC, Bytes: bytes, Insts: uint32(len(sizes))})
		e.open = true
	}
	e.lane.Sizes = append(e.lane.Sizes, sizes...)
	e.emitted += int64(len(sizes))
}

// emitRendered adds a whole block to the lane, flushing first when it does
// not fit, so a lane never passes BatchSize instructions. A block longer than
// a batch is cut at instruction boundaries into full lanes and a rest.
func (e *Executor) emitRendered(rb *renderedBlock) {
	if len(e.lane.Sizes)+len(rb.sizes) <= BatchSize {
		e.appendRun(rb.addr, rb.lastPC, rb.bytes, rb.sizes)
		return
	}
	e.flush()
	addr, sizes := rb.addr, rb.sizes
	for len(sizes) > BatchSize { //repolint:allow ctxpoll bounded: drains one block, a batch per iteration
		var bytes uint32
		for _, sz := range sizes[:BatchSize] {
			bytes += uint32(sz)
		}
		e.appendRun(addr, addr+isa.Addr(bytes)-isa.Addr(sizes[BatchSize-1]), bytes, sizes[:BatchSize])
		e.flush()
		addr, sizes = addr+isa.Addr(bytes), sizes[BatchSize:]
	}
	e.appendRun(addr, rb.lastPC, uint32(rb.addr+isa.Addr(rb.bytes)-addr), sizes)
}

// emitBranchBatch ends the lane's open run with a resolved branch — or
// gives it a one-instruction run — and updates history and site counts
// exactly as the reference engine's emitBranch does.
func (e *Executor) emitBranchBatch(br *program.Branch, taken bool, target isa.Addr) {
	if len(e.lane.Sizes) == BatchSize {
		e.flush()
	}
	if r := e.runEndingAt(br.PC); r != nil {
		r.PC, r.Bytes, r.Insts = br.PC, r.Bytes+uint32(br.Size), r.Insts+1
		r.Kind, r.Taken, r.Target = br.Kind, taken, target
	} else {
		e.lane.Runs = append(e.lane.Runs, isa.Run{
			Start: br.PC, PC: br.PC, Target: target, Bytes: uint32(br.Size), Insts: 1, Kind: br.Kind, Taken: taken})
	}
	e.open = false
	e.lane.Sizes = append(e.lane.Sizes, br.Size)
	e.emitted++
	if br.Kind == isa.KindCondDirect {
		e.hist = e.hist<<1 | b2u(taken) // a shift, not a host branch on a hard-to-predict outcome
	}
	e.siteCount[br.ID]++
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
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
