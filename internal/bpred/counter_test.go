package bpred

import (
	"testing"

	"rebalance/internal/isa"
)

// refCtrUpdate and refCtr3Update (tage_ref_test.go) are the saturating
// updates the transition tables replaced, kept verbatim: the reference models
// count through them, so they share no counter code with the kernels.
func refCtrUpdate(c counter2, taken bool) counter2 {
	if taken {
		if c < 3 {
			return c + 1
		}
		return c
	}
	if c > 0 {
		return c - 1
	}
	return c
}

func refCtrTaken(c counter2) bool { return c >= 2 }

// TestCounterTransitions compares every (state, outcome) pair of both
// counters — 8 of the 2-bit one, 16 of the 3-bit one — with the branchy
// updates.
func TestCounterTransitions(t *testing.T) {
	for _, taken := range []bool{false, true} {
		for c := counter2(0); c <= 3; c++ {
			if got, want := ctrUpdate(c, taken), refCtrUpdate(c, taken); got != want {
				t.Errorf("ctrUpdate(%d, %v) = %d, want %d", c, taken, got, want)
			}
		}
		for c := int8(-4); c <= 3; c++ {
			if got, want := ctr3Update(c, taken), refCtr3Update(c, taken); got != want {
				t.Errorf("ctr3Update(%d, %v) = %d, want %d", c, taken, got, want)
			}
		}
	}
}

// refBimodal is the reference models' bimodal table, counting through
// refCtrUpdate: a wrong transition table would otherwise move a model's base
// in step with the kernel's.
type refBimodal struct {
	mask uint64
	tab  []counter2
}

func newRefBimodal(logSize uint) *refBimodal {
	return &refBimodal{mask: 1<<logSize - 1, tab: make([]counter2, 1<<logSize)}
}

func (b *refBimodal) predict(pc isa.Addr) bool { return refCtrTaken(b.tab[pcIndexBits(pc)&b.mask]) }

func (b *refBimodal) update(pc isa.Addr, taken bool) {
	i := pcIndexBits(pc) & b.mask
	b.tab[i] = refCtrUpdate(b.tab[i], taken)
}
