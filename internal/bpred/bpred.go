// Package bpred implements the three branch predictors the paper evaluates
// (Section IV-A): gshare, a tournament predictor in the style of the Alpha
// 21264, and TAGE — each in a "small" (~2KB) and "big" (~16KB) hardware
// budget per Table II — plus the 64-entry loop branch predictor (~512B)
// that the paper overlays on the small configurations.
//
// Predictors are trace-driven: Access(pc, taken) returns the prediction for
// the branch and then trains on the actual outcome, which is the standard
// methodology for pintool-based branch-predictor studies (and the paper's).
// Only conditional branches reach the predictor; unconditional control flow
// is always taken and is the BTB's problem (package btb). Sim, which drives
// predictors over a stream, is a trace.LaneConsumer for that reason: it reads
// the fetch runs that end in a conditional branch, not instructions.
package bpred

import (
	"fmt"

	"rebalance/internal/isa"
)

// Predictor is a conditional-branch direction predictor.
type Predictor interface {
	// Access returns the prediction for the branch at pc and then updates
	// the predictor with the actual outcome.
	Access(pc isa.Addr, taken bool) (predictedTaken bool)
	// Name identifies the predictor configuration (e.g. "gshare-small").
	Name() string
	// CostBits returns the hardware storage cost in bits, per the Table II
	// formulas.
	CostBits() int
}

// counter2 is a 2-bit saturating counter; values 0..3, taken when >= 2.
type counter2 = uint8

func ctrTaken(c counter2) bool { return c >= 2 }

// ctrNext is the 2-bit counter's transition table, indexed by state |
// taken<<2: the low half steps down and saturates at 0, the high half steps up
// and saturates at 3.
var ctrNext = [8]counter2{0, 0, 1, 2, 1, 2, 3, 3}

// ctrUpdate moves a 2-bit counter toward the outcome. It is a table lookup,
// not a branch on taken: the outcome is what the predictor simulates, so a
// branch on it would make the host mispredict about as often as the simulated
// predictor does. Every 2-bit update in the package goes through it and every
// 3-bit one through ctr3Update.
func ctrUpdate(c counter2, taken bool) counter2 {
	return ctrNext[(c|uint8(b2u(taken))<<2)&7]
}

// pcIndexBits extracts branch-address bits for table indexing. The low two
// bits are dropped, reflecting instruction alignment; the paper notes the
// aliasing problems of this simple modulo indexing.
func pcIndexBits(pc isa.Addr) uint64 { return uint64(pc) >> 2 }

// Bimodal is a simple table of 2-bit counters indexed by branch address.
// It is not evaluated standalone in the paper but serves as the TAGE base
// predictor and a sanity baseline in tests.
type Bimodal struct {
	name string
	mask uint64
	tab  []counter2
}

// NewBimodal returns a bimodal predictor with 2^logSize counters.
func NewBimodal(name string, logSize uint) *Bimodal {
	return &Bimodal{
		name: name,
		mask: (1 << logSize) - 1,
		tab:  make([]counter2, 1<<logSize),
	}
}

// Access implements Predictor.
func (b *Bimodal) Access(pc isa.Addr, taken bool) bool {
	i := pcIndexBits(pc) & b.mask
	pred := ctrTaken(b.tab[i])
	b.tab[i] = ctrUpdate(b.tab[i], taken)
	return pred
}

// predict returns the current prediction without training (used by TAGE).
func (b *Bimodal) predict(pc isa.Addr) bool {
	return ctrTaken(b.tab[pcIndexBits(pc)&b.mask])
}

// update trains without predicting (used by TAGE).
func (b *Bimodal) update(pc isa.Addr, taken bool) {
	i := pcIndexBits(pc) & b.mask
	b.tab[i] = ctrUpdate(b.tab[i], taken)
}

// Name implements Predictor.
func (b *Bimodal) Name() string { return b.name }

// CostBits implements Predictor: 2 bits per entry.
func (b *Bimodal) CostBits() int { return 2 * len(b.tab) }

// Gshare is McFarling's gshare: one global table of 2-bit counters indexed
// by the branch address XORed with the global history register (Table II:
// cost 2^(m+1) bits for history length m).
type Gshare struct {
	name     string
	histBits uint
	mask     uint64
	hist     uint64
	tab      []counter2
}

// NewGshare returns a gshare predictor with m history bits and 2^m
// counters.
func NewGshare(name string, m uint) *Gshare {
	return &Gshare{
		name:     name,
		histBits: m,
		mask:     (1 << m) - 1,
		tab:      make([]counter2, 1<<m),
	}
}

// NewGshareSmall returns the paper's ~2KB configuration (m=13).
func NewGshareSmall() *Gshare { return NewGshare("gshare-small", 13) }

// NewGshareBig returns the paper's ~16KB configuration (m=16).
func NewGshareBig() *Gshare { return NewGshare("gshare-big", 16) }

// Access implements Predictor.
func (g *Gshare) Access(pc isa.Addr, taken bool) bool {
	i := (pcIndexBits(pc) ^ g.hist) & g.mask
	pred := ctrTaken(g.tab[i])
	g.tab[i] = ctrUpdate(g.tab[i], taken)
	g.hist = ((g.hist << 1) | b2u(taken)) & g.mask
	return pred
}

// Name implements Predictor.
func (g *Gshare) Name() string { return g.name }

// CostBits implements Predictor: 2^(m+1) bits (2 bits x 2^m entries).
func (g *Gshare) CostBits() int { return 2 * len(g.tab) }

// geometry names everything that shapes a gshare's state (see NewSim).
func (g *Gshare) geometry() string { return fmt.Sprintf("gshare/%d", g.histBits) }

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
