package synth

import (
	"fmt"
	"testing"

	"rebalance/internal/analysis"
	"rebalance/internal/bpred"
	"rebalance/internal/isa"
	"rebalance/internal/trace"
)

// honestyInsts is the stream length the statistical assertions run over:
// long enough that the deterministic phased loops reach their long-run
// rates and the binomial site noise is well under the tolerances.
const honestyInsts = 400_000

// TestBiasMixtureHonesty is the generator's core promise: across a grid
// of requested biased-branch fractions, the measured Figure 2 statistic
// (the share of dynamic conditional branches whose site is decided >= 90%
// one way) lands within tolerance of the knob — structure included, not
// just the explicitly assigned sites.
func TestBiasMixtureHonesty(t *testing.T) {
	const tol = 0.08
	prev := -1.0
	for _, bf := range []float64{0.45, 0.6, 0.8, 0.95} {
		p := Params{
			Name:           fmt.Sprintf("honesty-bias%v", bf),
			BiasedFrac:     bf,
			CorrelatedFrac: (1 - bf) * 2 / 3,
			NoisyFrac:      (1 - bf) / 3,
		}
		bias := analysis.NewBias()
		if err := trace.Run(MustBuild(p), 1, honestyInsts, trace.NewFeed(bias)); err != nil {
			t.Fatal(err)
		}
		h := bias.Result().Histogram(analysis.Total)
		got := h.Fraction(0) + h.Fraction(h.Buckets()-1)
		if got < bf-tol || got > bf+tol {
			t.Errorf("biased_frac %v: measured %.3f outside +/-%v", bf, got, tol)
		}
		if got <= prev {
			t.Errorf("biased fraction not monotone: %.3f after %.3f", got, prev)
		}
		prev = got
	}
}

// TestBlockLenHonesty: the measured mean dynamic basic-block length (in
// bytes, branch included — the paper's Figure 4 metric) scales with the
// block_len knob. The expected value is (block_len+1) instructions at the
// generator's ~4.3 byte mean instruction size, within a generous window
// for the structural small blocks around the units.
func TestBlockLenHonesty(t *testing.T) {
	const bytesPerInst = 4.3
	prev := -1.0
	for _, l := range []int{2, 8, 24} {
		p := Params{Name: fmt.Sprintf("honesty-len%d", l), BlockLen: l}
		bbl := analysis.NewBBL()
		if err := trace.Run(MustBuild(p), 1, honestyInsts, trace.NewFeed(bbl)); err != nil {
			t.Fatal(err)
		}
		got := bbl.Result().AvgBlockBytes(analysis.Total)
		expect := float64(l+1) * bytesPerInst
		if got < 0.7*expect || got > 1.4*expect {
			t.Errorf("block_len %d: measured %.1fB per block, expected within [0.7, 1.4]x%.1fB", l, got, expect)
		}
		if got <= prev {
			t.Errorf("block length not monotone: %.1f after %.1f", got, prev)
		}
		prev = got
	}
}

// TestFootprintHonesty: the hot_frac knob controls the 99%-dynamic
// footprint (Figure 3): cold functions widen the static image and the
// touched footprint but must stay out of the memory that covers 99% of
// dynamic instructions.
func TestFootprintHonesty(t *testing.T) {
	dyn99 := map[float64]int64{}
	var static1 int64
	for _, hf := range []float64{0.25, 0.5, 1.0} {
		p := Params{Name: fmt.Sprintf("honesty-hot%v", hf), HotFrac: hf, Funcs: 16}
		prog := MustBuild(p)
		fp := analysis.NewFootprint()
		if err := trace.Run(prog, 1, honestyInsts, trace.NewFeed(fp)); err != nil {
			t.Fatal(err)
		}
		dyn99[hf] = fp.Result(prog.TextSize).DynamicBytes(analysis.Total, 0.99)
		if hf == 1.0 {
			static1 = prog.TextSize
		}
	}
	if !(dyn99[0.25] < dyn99[0.5] && dyn99[0.5] < dyn99[1.0]) {
		t.Errorf("dyn99 footprint not monotone in hot_frac: %v", dyn99)
	}
	// A quarter-hot program's working set is a small fraction of a fully
	// hot one's; and a fully hot program exercises most of its image.
	if dyn99[0.25] > dyn99[1.0]/2 {
		t.Errorf("hot_frac 0.25 dyn99 %dB not well below hot_frac 1.0 dyn99 %dB", dyn99[0.25], dyn99[1.0])
	}
	if dyn99[1.0] < static1/2 {
		t.Errorf("fully hot program covers only %dB of its %dB image", dyn99[1.0], static1)
	}
}

// TestStreamCoverage: every synthetic program exercises both phases and
// every instruction kind the paper's Figure 1 classifies, and its branch
// fraction stays in the plausible envelope the hand-built profiles obey.
func TestStreamCoverage(t *testing.T) {
	for _, p := range []Params{
		{Name: "coverage-periodic"},
		{Name: "coverage-weighted", Dispatch: DispatchWeighted, Funcs: 3, HotFrac: 1},
	} {
		obs := analysis.NewBranchMix()
		if err := trace.Run(MustBuild(p), 1, 300_000, trace.NewFeed(obs)); err != nil {
			t.Fatal(err)
		}
		mix := obs.Result()
		if mix.InstCount(analysis.Serial) == 0 || mix.InstCount(analysis.Parallel) == 0 {
			t.Errorf("%s: missing a phase (serial=%d parallel=%d)",
				p.Name, mix.InstCount(analysis.Serial), mix.InstCount(analysis.Parallel))
		}
		for k := 0; k < isa.NumKinds; k++ {
			if mix.Count(analysis.Total, isa.Kind(k)) == 0 {
				t.Errorf("%s: emitted no %v instructions", p.Name, isa.Kind(k))
			}
		}
		if bp := mix.BranchPct(analysis.Total); bp < 2 || bp > 45 {
			t.Errorf("%s: branch share %.1f%% outside plausible range", p.Name, bp)
		}
	}
}

// TestCorrelatedMixtureSeparatesPredictors: correlated sites must be
// genuinely history-deterministic and noisy sites genuinely unlearnable.
// Two checks the Bias histogram cannot make (both populations look alike
// to it): on a correlated-heavy mixture a long-history tagged predictor
// beats same-budget gshare (the paper's Figure 5 separation), and
// swapping the correlated mass for noise must sharply raise every
// predictor's MPKI — if the "correlated" sites were secretly noise, the
// swap would change nothing.
func TestCorrelatedMixtureSeparatesPredictors(t *testing.T) {
	mpki := func(p Params) (gshare, tage float64) {
		t.Helper()
		g, err := bpred.NewByName("gshare-big")
		if err != nil {
			t.Fatal(err)
		}
		ta, err := bpred.NewByName("tage-big")
		if err != nil {
			t.Fatal(err)
		}
		sim := bpred.NewSim(g, ta)
		if err := trace.Run(MustBuild(p), 1, honestyInsts, trace.NewFeed(sim)); err != nil {
			t.Fatal(err)
		}
		rs := sim.Results()
		return rs[0].MPKI(), rs[1].MPKI()
	}

	gCorr, tCorr := mpki(Params{Name: "sep-corr", BiasedFrac: 0.3, CorrelatedFrac: 0.65, NoisyFrac: 0.05})
	if tCorr >= gCorr {
		t.Errorf("correlated-heavy mixture: tage %.2f MPKI not below gshare %.2f", tCorr, gCorr)
	}
	gNoise, tNoise := mpki(Params{Name: "sep-noise", BiasedFrac: 0.3, CorrelatedFrac: 0.05, NoisyFrac: 0.65})
	if tNoise < 1.5*tCorr || gNoise < 1.5*gCorr {
		t.Errorf("replacing correlated mass with noise should sharply raise MPKI: tage %.2f -> %.2f, gshare %.2f -> %.2f",
			tCorr, tNoise, gCorr, gNoise)
	}
}
