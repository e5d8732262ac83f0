// Package isa defines the abstract instruction model shared by the workload
// synthesizer, the trace executor, the characterization "pintools", and the
// hardware-structure simulators.
//
// The paper instruments native x86 binaries with Pin; every analysis it
// performs consumes only the dynamic instruction stream — addresses, sizes,
// branch kinds, outcomes, and targets. This package models exactly that
// stream. Opcodes and operands are deliberately absent: they never influence
// any result in the paper. Instruction *sizes in bytes* are modeled because
// they determine instruction footprints and I-cache behaviour.
package isa

import "fmt"

// Addr is a virtual address in the synthetic address space.
type Addr uint64

// Kind classifies an instruction the way the paper's branch-mix pintool does
// (Figure 1): conditional and unconditional direct branches, indirect
// branches, direct and indirect calls, returns, system calls, and everything
// else.
type Kind uint8

const (
	// KindOther is any non-control-flow instruction (ALU, load, store, ...).
	KindOther Kind = iota
	// KindCondDirect is a conditional direct branch (the dominant kind).
	KindCondDirect
	// KindUncondDirect is an unconditional direct branch (jmp).
	KindUncondDirect
	// KindIndirectBranch is an indirect jump through a register or memory.
	KindIndirectBranch
	// KindCall is a direct call.
	KindCall
	// KindIndirectCall is an indirect call (function pointer, virtual call).
	KindIndirectCall
	// KindReturn is a return instruction.
	KindReturn
	// KindSyscall is a system call instruction.
	KindSyscall

	numKinds
)

// NumKinds is the number of distinct instruction kinds.
const NumKinds = int(numKinds)

var kindNames = [NumKinds]string{
	"other",
	"cond-direct",
	"uncond-direct",
	"indirect-branch",
	"call",
	"indirect-call",
	"return",
	"syscall",
}

// String returns the short human-readable name of the kind.
func (k Kind) String() string {
	if int(k) < NumKinds {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// IsBranch reports whether the kind is any control-flow instruction;
// this matches the paper's "branch instructions" denominator in Figure 1.
func (k Kind) IsBranch() bool { return k != KindOther }

// IsConditional reports whether the kind is a conditional direct branch,
// the population studied in Figure 2 and Table I.
func (k Kind) IsConditional() bool { return k == KindCondDirect }

// Inst is one dynamic instruction as observed by the instrumentation layer.
//
// For non-branch instructions only PC, Size, and Phase are meaningful.
// For branches, Taken/Target/Outcome fields describe the resolved outcome.
type Inst struct {
	// PC is the instruction's virtual address.
	PC Addr
	// Size is the instruction length in bytes (1..15 on x86).
	Size uint8
	// Kind classifies the instruction.
	Kind Kind
	// Taken reports whether a branch was taken. Unconditional branches,
	// calls, returns and syscalls are always taken. Meaningless for
	// KindOther.
	Taken bool
	// Target is the resolved control-flow target of a taken branch.
	Target Addr
	// Serial reports whether the instruction executed in a serial
	// (sequential) code section, as opposed to inside a parallel region.
	Serial bool
}

// NextPC returns the address of the next executed instruction.
func (in *Inst) NextPC() Addr {
	if in.Kind.IsBranch() && in.Taken {
		return in.Target
	}
	return in.PC + Addr(in.Size)
}

// Direction labels the resolved direction of a branch for misprediction
// breakdowns (Figure 6).
type Direction uint8

const (
	// DirNotTaken is a branch that fell through.
	DirNotTaken Direction = iota
	// DirTakenBackward is a taken branch targeting a lower address.
	DirTakenBackward
	// DirTakenForward is a taken branch targeting a higher address.
	DirTakenForward

	numDirections
)

// NumDirections is the number of branch direction classes.
const NumDirections = int(numDirections)

// String returns the human-readable direction name.
func (d Direction) String() string {
	switch d {
	case DirNotTaken:
		return "not-taken"
	case DirTakenBackward:
		return "taken-backward"
	case DirTakenForward:
		return "taken-forward"
	}
	return fmt.Sprintf("direction(%d)", uint8(d))
}

// BranchDirection classifies a resolved branch instance.
func (in *Inst) BranchDirection() Direction { return direction(in.PC, in.Target, in.Taken) }

func direction(pc, target Addr, taken bool) Direction {
	if !taken {
		return DirNotTaken
	}
	if target < pc {
		return DirTakenBackward
	}
	return DirTakenForward
}

// Run is one fetch run: a span of a batch at contiguous addresses,
// described by its byte range and its last instruction. A run ends at the
// first control-flow instruction (taken or not), before an instruction that
// does not start where its predecessor ended (a region restart or change
// redirects fetch without a branch), with the batch, or sooner where its
// source cut it (see Lane). The event-driven observers draw figures of these
// spans and the branches that end them, so they read runs, not instructions.
type Run struct {
	// Start is the first instruction's address; the run covers the bytes
	// [Start, Start+Bytes) in Insts instructions.
	Start Addr
	// PC, Target, Kind and Taken are the last instruction's. Kind is
	// KindOther, and Taken false, when no branch ended the run.
	PC, Target   Addr
	Bytes, Insts uint32
	Kind         Kind
	Taken        bool
}

// BranchDirection classifies the branch that ended the run.
func (r *Run) BranchDirection() Direction { return direction(r.PC, r.Target, r.Taken) }

// Lane is one batch as its fetch runs, in program order, and what a stream
// source produces: the executor renders lanes and trr1 decodes to them. With
// Sizes it is lossless — trace.Expand rebuilds the instructions. A batch
// never mixes serial and parallel sections, so the phase is the lane's. A
// source may end a run early (at a block edge, or where a batch was cut), so
// two adjacent runs can be contiguous with no branch between them; every run
// still ends at its first branch. The lane is shared by its consumers and
// reused for the next batch: they must not retain or modify Runs or Sizes.
type Lane struct {
	Runs []Run
	// Sizes holds every instruction's size in bytes, run after run: the
	// first Runs[0].Insts entries are Runs[0]'s and sum to its Bytes.
	Sizes []uint8
	// Insts is the number of instructions in the batch, len(Sizes).
	Insts int
	// Phase is the batch's code section as a counter index: 0 serial, 1
	// parallel, the order every result keeps its counters in.
	Phase int
}
