package isa

import (
	"strings"
	"testing"
)

// kindProps is the truth table for every kind's classification predicates
// — the encodings the analysis collectors and simulators branch on.
var kindProps = []struct {
	kind        Kind
	name        string
	branch      bool
	conditional bool
}{
	{KindOther, "other", false, false},
	{KindCondDirect, "cond-direct", true, true},
	{KindUncondDirect, "uncond-direct", true, false},
	{KindIndirectBranch, "indirect-branch", true, false},
	{KindCall, "call", true, false},
	{KindIndirectCall, "indirect-call", true, false},
	{KindReturn, "return", true, false},
	{KindSyscall, "syscall", true, false},
}

func TestKindPredicates(t *testing.T) {
	if len(kindProps) != NumKinds {
		t.Fatalf("truth table covers %d kinds, package defines %d", len(kindProps), NumKinds)
	}
	seen := map[string]bool{}
	for _, tc := range kindProps {
		if got := tc.kind.String(); got != tc.name {
			t.Errorf("%d.String() = %q, want %q", tc.kind, got, tc.name)
		}
		if seen[tc.name] {
			t.Errorf("kind name %q not unique", tc.name)
		}
		seen[tc.name] = true
		if got := tc.kind.IsBranch(); got != tc.branch {
			t.Errorf("%v.IsBranch() = %v, want %v", tc.kind, got, tc.branch)
		}
		if got := tc.kind.IsConditional(); got != tc.conditional {
			t.Errorf("%v.IsConditional() = %v, want %v", tc.kind, got, tc.conditional)
		}
	}
}

func TestKindStringOutOfRange(t *testing.T) {
	if got := Kind(200).String(); !strings.Contains(got, "200") {
		t.Errorf("out-of-range kind String() = %q, want it to carry the raw value", got)
	}
}

func TestNextPCAndFallThrough(t *testing.T) {
	cases := []struct {
		name string
		in   Inst
		next Addr
	}{
		{"non-branch", Inst{PC: 0x1000, Size: 4, Kind: KindOther}, 0x1004},
		{"not-taken branch", Inst{PC: 0x1000, Size: 2, Kind: KindCondDirect, Taken: false, Target: 0x2000}, 0x1002},
		{"taken branch", Inst{PC: 0x1000, Size: 2, Kind: KindCondDirect, Taken: true, Target: 0x2000}, 0x2000},
		{"taken other-kind ignores target", Inst{PC: 0x1000, Size: 4, Kind: KindOther, Taken: true, Target: 0x2000}, 0x1004},
		{"return", Inst{PC: 0x1000, Size: 1, Kind: KindReturn, Taken: true, Target: 0x500}, 0x500},
	}
	for _, tc := range cases {
		if got := tc.in.NextPC(); got != tc.next {
			t.Errorf("%s: NextPC() = %#x, want %#x", tc.name, got, tc.next)
		}
	}
}

func TestBranchDirection(t *testing.T) {
	cases := []struct {
		name string
		in   Inst
		dir  Direction
	}{
		{"not taken", Inst{PC: 0x1000, Kind: KindCondDirect, Taken: false, Target: 0x200}, DirNotTaken},
		{"taken backward", Inst{PC: 0x1000, Kind: KindCondDirect, Taken: true, Target: 0xf00}, DirTakenBackward},
		{"taken forward", Inst{PC: 0x1000, Kind: KindCondDirect, Taken: true, Target: 0x1100}, DirTakenForward},
		// A taken branch to its own address is "forward" (not lower):
		// the boundary case Table I's split depends on.
		{"self target", Inst{PC: 0x1000, Kind: KindUncondDirect, Taken: true, Target: 0x1000}, DirTakenForward},
	}
	for _, tc := range cases {
		if got := tc.in.BranchDirection(); got != tc.dir {
			t.Errorf("%s: BranchDirection() = %v, want %v", tc.name, got, tc.dir)
		}
	}
}

func TestDirectionString(t *testing.T) {
	want := map[Direction]string{
		DirNotTaken:      "not-taken",
		DirTakenBackward: "taken-backward",
		DirTakenForward:  "taken-forward",
	}
	if len(want) != NumDirections {
		t.Fatalf("truth table covers %d directions, package defines %d", len(want), NumDirections)
	}
	for d, name := range want {
		if got := d.String(); got != name {
			t.Errorf("%d.String() = %q, want %q", d, got, name)
		}
	}
	if got := Direction(9).String(); !strings.Contains(got, "9") {
		t.Errorf("out-of-range direction String() = %q, want it to carry the raw value", got)
	}
}
