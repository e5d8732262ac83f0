package bpred

import (
	"fmt"

	"rebalance/internal/isa"
)

// Tournament is the Alpha 21264-style hybrid predictor the paper evaluates:
// a local component (a per-branch history table feeding local prediction
// counters), a global gshare-style component, and a choice table trained on
// which component was right.
//
// The hardware budget follows Table II exactly: with n address-index bits
// and history length m, the local component costs 2^n x (m+2) bits (an
// m-bit local history plus a 2-bit counter per entry) and the global plus
// choice components cost 2^(m+2) bits (two tables of 2^m two-bit counters).
type Tournament struct {
	name string
	n, m uint

	localHist []uint64   // 2^n entries, m-bit local histories
	localCtr  []counter2 // 2^n entries, trained via local-history index
	globalCtr []counter2 // 2^m entries
	choiceCtr []counter2 // 2^m entries; taken = "use global"

	ghist uint64
}

// NewTournament returns a tournament predictor with 2^n local entries and
// history length m.
func NewTournament(name string, n, m uint) *Tournament {
	return &Tournament{
		name:      name,
		n:         n,
		m:         m,
		localHist: make([]uint64, 1<<n),
		localCtr:  make([]counter2, 1<<n),
		globalCtr: make([]counter2, 1<<m),
		choiceCtr: make([]counter2, 1<<m),
	}
}

// NewTournamentSmall returns the paper's ~2KB configuration (n=10, m=8).
func NewTournamentSmall() *Tournament { return NewTournament("tournament-small", 10, 8) }

// NewTournamentBig returns the paper's ~16KB configuration (n=12, m=14).
func NewTournamentBig() *Tournament { return NewTournament("tournament-big", 12, 14) }

// Access implements Predictor. It is straight-line code — nothing in it
// branches on the outcome or on a prediction (see ctrUpdate for why).
func (t *Tournament) Access(pc isa.Addr, taken bool) bool {
	nMask := uint64(1)<<t.n - 1
	mMask := uint64(1)<<t.m - 1
	bit := b2u(taken)

	li := pcIndexBits(pc) & nMask
	lhist := t.localHist[li]
	// The local prediction counter is selected by the branch entry hashed
	// with its own local history, so repeating per-branch patterns map to
	// stable counters.
	lci := (li ^ lhist) & nMask
	gi := (pcIndexBits(pc) ^ t.ghist) & mMask
	ci := t.ghist & mMask
	lc, gc, cc := t.localCtr[lci], t.globalCtr[gi], t.choiceCtr[ci]

	// Each prediction is bit 1 of its counter; the choice picks global's.
	local, global, useGlobal := lc>>1, gc>>1, cc>>1
	pred := local ^ (local^global)&useGlobal

	// Train: choice moves toward the component that was right, stored only
	// where they disagree, as in the 21264.
	t.choiceCtr[ci] = cc ^ (cc^ctrUpdate(cc, uint64(global) == bit))&-(local^global)
	t.localCtr[lci] = ctrUpdate(lc, taken)
	t.globalCtr[gi] = ctrUpdate(gc, taken)

	t.localHist[li] = (lhist<<1 | bit) & mMask
	t.ghist = (t.ghist<<1 | bit) & mMask
	return pred != 0
}

// Name implements Predictor.
func (t *Tournament) Name() string { return t.name }

// CostBits implements Predictor per Table II: 2^n(m+2) + 2^(m+2).
func (t *Tournament) CostBits() int {
	return (1<<t.n)*(int(t.m)+2) + (1 << (t.m + 2))
}

// geometry names everything that shapes a tournament's state (see NewSim).
func (t *Tournament) geometry() string { return fmt.Sprintf("tournament/%d/%d", t.n, t.m) }
