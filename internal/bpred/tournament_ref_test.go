package bpred

import (
	"slices"
	"testing"

	"rebalance/internal/isa"
)

// refTournament is the Tournament that branched on every prediction and
// outcome, kept verbatim but for its names and its counter helpers (the
// branchy ones of counter_test.go), so that the straight-line Tournament is
// compared against an independent model rather than against itself.
type refTournament struct {
	n, m uint

	localHist []uint64
	localCtr  []counter2
	globalCtr []counter2
	choiceCtr []counter2

	ghist uint64
}

func newRefTournament(n, m uint) *refTournament {
	return &refTournament{
		n:         n,
		m:         m,
		localHist: make([]uint64, 1<<n),
		localCtr:  make([]counter2, 1<<n),
		globalCtr: make([]counter2, 1<<m),
		choiceCtr: make([]counter2, 1<<m),
	}
}

func (t *refTournament) Access(pc isa.Addr, taken bool) bool {
	nMask := uint64(1)<<t.n - 1
	mMask := uint64(1)<<t.m - 1

	li := pcIndexBits(pc) & nMask
	lhist := t.localHist[li]
	lci := (li ^ lhist) & nMask
	localPred := refCtrTaken(t.localCtr[lci])

	gi := (pcIndexBits(pc) ^ t.ghist) & mMask
	globalPred := refCtrTaken(t.globalCtr[gi])

	ci := t.ghist & mMask
	useGlobal := refCtrTaken(t.choiceCtr[ci])

	pred := localPred
	if useGlobal {
		pred = globalPred
	}

	if localPred != globalPred {
		t.choiceCtr[ci] = refCtrUpdate(t.choiceCtr[ci], globalPred == taken)
	}
	t.localCtr[lci] = refCtrUpdate(t.localCtr[lci], taken)
	t.globalCtr[gi] = refCtrUpdate(t.globalCtr[gi], taken)

	t.localHist[li] = ((lhist << 1) | b2u(taken)) & (uint64(1)<<t.m - 1)
	t.ghist = ((t.ghist << 1) | b2u(taken)) & mMask
	return pred
}

// matchTournament drives got and its reference model over the same
// (pc, taken) sequence, failing at the first prediction that differs, and
// then compares every table and history.
func matchTournament(tb testing.TB, got *Tournament, want *refTournament, n int, branch func(i int) (isa.Addr, bool)) {
	tb.Helper()
	for i := 0; i < n; i++ {
		pc, taken := branch(i)
		if g, w := got.Access(pc, taken), want.Access(pc, taken); g != w {
			tb.Fatalf("%s: access %d (pc %#x, taken %v) predicted %v, reference %v", got.geometry(), i, pc, taken, g, w)
		}
	}
	if !slices.Equal(got.localHist, want.localHist) || !slices.Equal(got.localCtr, want.localCtr) ||
		!slices.Equal(got.globalCtr, want.globalCtr) || !slices.Equal(got.choiceCtr, want.choiceCtr) || got.ghist != want.ghist {
		tb.Fatalf("%s: state differs after %d accesses", got.geometry(), n)
	}
}

// TestTournamentMatchesReference holds both built-in tournaments to the
// reference model, prediction by prediction, on the conditional branches of
// 200k instructions of each built-in workload.
func TestTournamentMatchesReference(t *testing.T) {
	for _, wl := range []string{"comd-lite", "xalan-lite"} {
		var conds []isa.Inst
		for _, in := range recordStream(t, wl, 200_000) {
			if in.Kind.IsConditional() {
				conds = append(conds, in)
			}
		}
		if len(conds) == 0 {
			t.Fatalf("%s: stream has no conditional branches", wl)
		}
		for _, build := range []func() *Tournament{NewTournamentBig, NewTournamentSmall} {
			got := build()
			matchTournament(t, got, newRefTournament(got.n, got.m), len(conds), func(i int) (isa.Addr, bool) {
				return conds[i].PC, conds[i].Taken
			})
		}
	}
}

// FuzzTournamentMatchesReference holds Tournament to the reference model over
// random geometries — 1 to 16 local index bits, 1 to 16 history bits — and a
// (pc, taken) sequence drawn from the fuzz input, repeated to 4096 accesses.
func FuzzTournamentMatchesReference(f *testing.F) {
	seq := make([]byte, 512)
	for i, x := 0, uint64(1); i < len(seq); i++ {
		x = x*6364136223846793005 + 1442695040888963407
		seq[i] = byte(x >> 56)
	}
	// The geometry bytes are n-1 and m-1.
	f.Add(uint8(11), uint8(13), seq)     // tournament-big
	f.Add(uint8(9), uint8(7), seq)       // tournament-small
	f.Add(uint8(0), uint8(15), seq[:64]) // local history longer than the index
	f.Add(uint8(15), uint8(0), seq[:8])
	f.Fuzz(func(t *testing.T, n, m uint8, seq []byte) {
		if len(seq) < 2 {
			return
		}
		nb, mb := uint(1+n%16), uint(1+m%16)
		branches := len(seq) / 2
		matchTournament(t, NewTournament("fuzz", nb, mb), newRefTournament(nb, mb), 4096, func(i int) (isa.Addr, bool) {
			b := seq[2*(i%branches):]
			return isa.Addr(0x400000 + 4*uint64(b[0]) + uint64(b[1]>>1)<<10), b[1]&1 == 1
		})
	})
}
