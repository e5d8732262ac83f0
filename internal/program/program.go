// Package program defines the static program model used to reproduce the
// paper's workloads: functions, structured control-flow constructs (straight
// code, loops, if/else, calls, indirect calls, switches), basic blocks with
// byte-accurate instruction sizes, and per-branch-site behaviour models.
//
// The paper analyses native binaries through Pin. We have no binary
// instrumentation substrate in Go, so — per the substitution rule documented
// in DESIGN.md — each benchmark is modeled as a synthetic program whose
// architecture-independent stream statistics are set from the paper's
// published measurements. This package is the *static* half of that model;
// package trace executes it and emits the dynamic instruction stream that
// the analyzers and hardware simulators consume.
//
// The model is structured (a tree of constructs) rather than an arbitrary
// CFG: structured programs are what HPC codes overwhelmingly are, they admit
// an executor with no symbolic interpretation, and they give the synthesizer
// precise control over loop trip counts, branch bias, and code layout.
package program

import (
	"fmt"

	"rebalance/internal/isa"
)

// Program is a complete synthetic application: a set of functions laid out
// in one contiguous text segment, and a top-level schedule of serial and
// parallel regions that the executor cycles through.
type Program struct {
	// Name identifies the workload (e.g. "CoMD", "xalancbmk").
	Name string
	// Funcs lists every function in address-layout order.
	Funcs []*Func
	// Regions is the top-level schedule. The executor runs the regions in
	// order, repeatedly, until it has emitted the requested number of
	// instructions; this models the outer timestep loop of an HPC code.
	Regions []*Region
	// TextBase is the address of the first instruction.
	TextBase isa.Addr
	// TextSize is the total static code size in bytes (the paper's "static
	// instruction footprint", Figure 3).
	TextSize int64
	// NumSites is the number of branch sites; site IDs are dense in
	// [0, NumSites) so executors can keep per-site state in flat slices.
	NumSites int
	// NumBlocks is the number of straight-line blocks, with dense IDs.
	NumBlocks int
}

// Region is one top-level phase of the application.
type Region struct {
	// Name describes the region for diagnostics ("init", "force-kernel"...).
	Name string
	// Serial marks a sequential section (executed by the master thread
	// between parallel regions). Non-serial regions model OpenMP parallel
	// regions: the instrumented thread (thread0) executes 1/NumThreads of
	// the region's work.
	Serial bool
	// Body is the region's code.
	Body Node
	// Weight scales how many times this region body repeats per visit of
	// the schedule; it lets the synthesizer balance serial-vs-parallel
	// instruction fractions without duplicating nodes.
	Weight int
}

// Func is a function: a body and an implicit return instruction.
type Func struct {
	// Name is the function's diagnostic name.
	Name string
	// Body is the function's code.
	Body Node
	// Ret is the return instruction terminating the function.
	Ret *Branch
	// Entry is the address of the function's first instruction; assigned
	// by Layout.
	Entry isa.Addr
}

// Node is one structured program construct. The concrete types are Seq,
// Straight, Loop, If, Call, IndirectCall, Switch, and Syscall. Executors
// type-switch over them.
type Node interface {
	isNode()
}

// Seq executes its children in order.
type Seq struct {
	Nodes []Node
}

// Straight is a run of non-branch instructions that falls through to the
// next construct. It is the basic-block payload of the model.
type Straight struct {
	Block *Block
}

// Loop is a bottom-tested counted loop: Body executes once per iteration,
// then Back (a backward conditional branch) decides whether to continue.
// A loop that iterates N times executes Body N times and Back N times,
// with Back taken N-1 times and not-taken once (the exit).
type Loop struct {
	// Body is the loop body.
	Body Node
	// Back is the backward conditional branch; its target is the body's
	// first instruction.
	Back *Branch
	// Iters generates the per-execution trip count.
	Iters IterModel
}

// If is a conditional construct compiled the way -O3 code lays it out:
// a conditional forward branch that, when taken, skips over the Then path.
//
//	cond-branch  --taken--> else/join
//	then-path              (fall-through)
//	[jump join]            (only when Else != nil)
//	else-path
//	join
type If struct {
	// Cond is the conditional forward branch. Taken means "skip Then".
	Cond *Branch
	// Then is executed when Cond is not taken.
	Then Node
	// Else, if non-nil, is executed when Cond is taken.
	Else Node
	// SkipJump is the unconditional branch at the end of Then that jumps
	// over Else; nil when Else is nil.
	SkipJump *Branch
}

// Call is a direct call site.
type Call struct {
	// Site is the call instruction.
	Site *Branch
	// Callee is the called function.
	Callee *Func
}

// IndirectCall is an indirect call site that dispatches to one of several
// callees with given weights (a function-pointer or virtual-call site).
type IndirectCall struct {
	// Site is the indirect call instruction.
	Site *Branch
	// Callees are the possible targets.
	Callees []*Func
	// Weights give the relative dynamic frequency of each callee.
	Weights []float64
	// Pattern, if non-empty, makes target selection periodic over the
	// callee indices instead of random; this models predictable virtual
	// dispatch.
	Pattern []int
}

// Switch is an indirect jump that dispatches to one of several case bodies,
// all of which rejoin after the construct.
type Switch struct {
	// Site is the indirect jump instruction.
	Site *Branch
	// Cases are the alternative bodies.
	Cases []Node
	// Weights give the relative dynamic frequency of each case.
	Weights []float64
	// CaseJumps are the unconditional jumps from the end of each case to
	// the join point; assigned by Layout.
	CaseJumps []*Branch
	// CaseAddrs are the start addresses of each case body; assigned by
	// Layout and used as the indirect jump's runtime targets.
	CaseAddrs []isa.Addr
}

// Syscall is a system-call instruction (rare; Figure 1 shows the share is
// negligible but nonzero).
type Syscall struct {
	Site *Branch
}

func (*Seq) isNode()          {}
func (*Straight) isNode()     {}
func (*Loop) isNode()         {}
func (*If) isNode()           {}
func (*Call) isNode()         {}
func (*IndirectCall) isNode() {}
func (*Switch) isNode()       {}
func (*Syscall) isNode()      {}

// Block is a run of straight-line (non-branch) instructions.
type Block struct {
	// ID is the dense block identifier assigned by Layout.
	ID int
	// Addr is the address of the first instruction; assigned by Layout.
	Addr isa.Addr
	// Sizes holds each instruction's length in bytes, in order.
	Sizes []uint8
	// TotalBytes caches the sum of Sizes.
	TotalBytes int
}

// NewBlock builds a block from explicit instruction sizes.
func NewBlock(sizes []uint8) *Block {
	total := 0
	for _, s := range sizes {
		total += int(s)
	}
	return &Block{Sizes: sizes, TotalBytes: total}
}

// Branch is a static branch site: one control-flow instruction.
type Branch struct {
	// ID is the dense site identifier assigned by Layout.
	ID int
	// PC is the instruction address; assigned by Layout.
	PC isa.Addr
	// Size is the instruction length in bytes.
	Size uint8
	// Kind is the control-flow kind.
	Kind isa.Kind
	// Target is the static target address for direct branches and calls;
	// assigned by Layout (loop-back edges target the body entry, If
	// conditions target the else/join point, calls target the callee).
	Target isa.Addr
	// Behavior decides taken/not-taken for conditional branches; nil for
	// unconditional kinds and for loop back-edges (the Loop's IterModel
	// governs those).
	Behavior Behavior
}

// Validate checks structural invariants the synthesizer and layout must
// establish. It returns the first violation found.
func (p *Program) Validate() error {
	if p.Name == "" {
		return fmt.Errorf("program has no name")
	}
	if len(p.Regions) == 0 {
		return fmt.Errorf("program %q has no regions", p.Name)
	}
	if p.TextSize <= 0 {
		return fmt.Errorf("program %q has no laid-out text (run Layout)", p.Name)
	}
	seenSites := make(map[int]bool, p.NumSites)
	seenBlocks := make(map[int]bool, p.NumBlocks)
	var walk func(n Node) error
	checkBranch := func(br *Branch, where string) error {
		if br == nil {
			return fmt.Errorf("%s: nil branch", where)
		}
		if br.ID < 0 || br.ID >= p.NumSites {
			return fmt.Errorf("%s: branch ID %d out of range [0,%d)", where, br.ID, p.NumSites)
		}
		if seenSites[br.ID] {
			return fmt.Errorf("%s: branch ID %d appears twice", where, br.ID)
		}
		seenSites[br.ID] = true
		if br.Size == 0 {
			return fmt.Errorf("%s: branch with zero size", where)
		}
		if br.PC < p.TextBase || br.PC >= p.TextBase+isa.Addr(p.TextSize) {
			return fmt.Errorf("%s: branch PC %#x outside text segment", where, br.PC)
		}
		return nil
	}
	walk = func(n Node) error {
		switch v := n.(type) {
		case nil:
			return nil
		case *Seq:
			for _, c := range v.Nodes {
				if err := walk(c); err != nil {
					return err
				}
			}
		case *Straight:
			b := v.Block
			if b == nil || len(b.Sizes) == 0 {
				return fmt.Errorf("empty straight block")
			}
			if b.ID < 0 || b.ID >= p.NumBlocks {
				return fmt.Errorf("block ID %d out of range [0,%d)", b.ID, p.NumBlocks)
			}
			if seenBlocks[b.ID] {
				return fmt.Errorf("block ID %d appears twice", b.ID)
			}
			seenBlocks[b.ID] = true
		case *Loop:
			if v.Iters == nil {
				return fmt.Errorf("loop without iteration model")
			}
			if err := checkBranch(v.Back, "loop back-edge"); err != nil {
				return err
			}
			if v.Back.Kind != isa.KindCondDirect {
				return fmt.Errorf("loop back-edge must be conditional, got %v", v.Back.Kind)
			}
			if v.Back.Target >= v.Back.PC {
				return fmt.Errorf("loop back-edge at %#x is not backward (target %#x)", v.Back.PC, v.Back.Target)
			}
			if err := walk(v.Body); err != nil {
				return err
			}
		case *If:
			if err := checkBranch(v.Cond, "if condition"); err != nil {
				return err
			}
			if v.Cond.Behavior == nil {
				return fmt.Errorf("if condition at %#x has no behavior", v.Cond.PC)
			}
			if v.Cond.Target <= v.Cond.PC {
				return fmt.Errorf("if condition at %#x is not forward (target %#x)", v.Cond.PC, v.Cond.Target)
			}
			if err := walk(v.Then); err != nil {
				return err
			}
			if v.Else != nil {
				if v.SkipJump == nil {
					return fmt.Errorf("if with else at %#x lacks skip jump", v.Cond.PC)
				}
				if err := checkBranch(v.SkipJump, "if skip-jump"); err != nil {
					return err
				}
				if err := walk(v.Else); err != nil {
					return err
				}
			}
		case *Call:
			if err := checkBranch(v.Site, "call site"); err != nil {
				return err
			}
			if v.Callee == nil {
				return fmt.Errorf("call at %#x has no callee", v.Site.PC)
			}
			if v.Site.Target != v.Callee.Entry {
				return fmt.Errorf("call at %#x target %#x != callee entry %#x", v.Site.PC, v.Site.Target, v.Callee.Entry)
			}
		case *IndirectCall:
			if err := checkBranch(v.Site, "indirect call site"); err != nil {
				return err
			}
			if len(v.Callees) == 0 {
				return fmt.Errorf("indirect call at %#x has no callees", v.Site.PC)
			}
			if len(v.Pattern) == 0 && len(v.Weights) != len(v.Callees) {
				return fmt.Errorf("indirect call at %#x: %d weights for %d callees", v.Site.PC, len(v.Weights), len(v.Callees))
			}
			for _, idx := range v.Pattern {
				if idx < 0 || idx >= len(v.Callees) {
					return fmt.Errorf("indirect call at %#x: pattern index %d out of range", v.Site.PC, idx)
				}
			}
		case *Switch:
			if err := checkBranch(v.Site, "switch site"); err != nil {
				return err
			}
			if len(v.Cases) == 0 {
				return fmt.Errorf("switch at %#x has no cases", v.Site.PC)
			}
			if len(v.Weights) != len(v.Cases) {
				return fmt.Errorf("switch at %#x: %d weights for %d cases", v.Site.PC, len(v.Weights), len(v.Cases))
			}
			if len(v.CaseJumps) != len(v.Cases) {
				return fmt.Errorf("switch at %#x not laid out (case jumps missing)", v.Site.PC)
			}
			for i, c := range v.Cases {
				if err := walk(c); err != nil {
					return err
				}
				if err := checkBranch(v.CaseJumps[i], "switch case jump"); err != nil {
					return err
				}
			}
		case *Syscall:
			if err := checkBranch(v.Site, "syscall"); err != nil {
				return err
			}
		default:
			return fmt.Errorf("unknown node type %T", n)
		}
		return nil
	}
	for _, f := range p.Funcs {
		if err := walk(f.Body); err != nil {
			return fmt.Errorf("func %s: %w", f.Name, err)
		}
		if err := checkBranch(f.Ret, "func "+f.Name+" return"); err != nil {
			return err
		}
		if f.Ret.Kind != isa.KindReturn {
			return fmt.Errorf("func %s: return has kind %v", f.Name, f.Ret.Kind)
		}
	}
	for _, r := range p.Regions {
		if r.Weight <= 0 {
			return fmt.Errorf("region %q has non-positive weight", r.Name)
		}
		if err := walk(r.Body); err != nil {
			return fmt.Errorf("region %s: %w", r.Name, err)
		}
	}
	return nil
}
