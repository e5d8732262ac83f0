package program

import (
	"strings"
	"testing"

	"rebalance/internal/isa"
	"rebalance/internal/rng"
)

// tiny builds a minimal two-function program exercising every construct,
// pre-layout. librarySplit 1 places "lib" at the text base.
func tiny() *Program {
	lib := &Func{
		Name: "lib",
		Body: &Straight{Block: NewBlock([]uint8{4, 4, 4})},
		Ret:  &Branch{Size: 1, Kind: isa.KindReturn},
	}
	callee := &Func{
		Name: "callee",
		Body: &Seq{Nodes: []Node{
			&Straight{Block: NewBlock([]uint8{2, 3})},
			&Call{Site: &Branch{Size: 5}, Callee: lib},
		}},
		Ret: &Branch{Size: 1, Kind: isa.KindReturn},
	}
	body := &Seq{Nodes: []Node{
		&Straight{Block: NewBlock([]uint8{4, 4})},
		&Loop{
			Body:  &Straight{Block: NewBlock([]uint8{3, 3})},
			Back:  &Branch{Size: 2},
			Iters: FixedIters{N: 4},
		},
		&If{
			Cond:     &Branch{Size: 2, Behavior: BiasedBehavior{P: 0.5}},
			Then:     &Straight{Block: NewBlock([]uint8{4})},
			Else:     &Straight{Block: NewBlock([]uint8{5})},
			SkipJump: &Branch{Size: 2},
		},
		&IndirectCall{
			Site:    &Branch{Size: 3},
			Callees: []*Func{callee, lib},
			Weights: []float64{0.5, 0.5},
		},
		&Switch{
			Site:    &Branch{Size: 3},
			Cases:   []Node{&Straight{Block: NewBlock([]uint8{2})}, &Straight{Block: NewBlock([]uint8{3})}},
			Weights: []float64{0.7, 0.3},
		},
		&Syscall{Site: &Branch{Size: 2}},
	}}
	return &Program{
		Name:    "tiny",
		Funcs:   []*Func{lib, callee},
		Regions: []*Region{{Name: "all", Serial: true, Weight: 1, Body: body}},
	}
}

func mustLayout(t *testing.T, p *Program, librarySplit int) *Program {
	t.Helper()
	if err := Layout(p, librarySplit); err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestLayoutInvariants(t *testing.T) {
	p := mustLayout(t, tiny(), 1)

	if p.TextBase != DefaultTextBase {
		t.Errorf("TextBase = %#x, want %#x", p.TextBase, DefaultTextBase)
	}
	if p.TextSize <= 0 {
		t.Fatalf("TextSize = %d", p.TextSize)
	}
	// Function entries are 16-aligned and the library function sits at
	// the segment base, so calls into it are backward.
	for _, f := range p.Funcs {
		if f.Entry%16 != 0 {
			t.Errorf("func %s entry %#x not 16-aligned", f.Name, f.Entry)
		}
	}
	if p.Funcs[0].Entry != p.TextBase {
		t.Errorf("library func at %#x, want the text base %#x", p.Funcs[0].Entry, p.TextBase)
	}
	if p.Funcs[1].Entry <= p.Funcs[0].Entry {
		t.Errorf("post-region func %#x not after library func %#x", p.Funcs[1].Entry, p.Funcs[0].Entry)
	}

	// Dense IDs: Validate (run by mustLayout) proved uniqueness and
	// range; check the counts match the constructs we built. Sites:
	// loop back + if cond + skip jump + indirect call + switch site +
	// 2 case jumps + syscall + direct call + 2 returns = 11.
	if p.NumSites != 11 {
		t.Errorf("NumSites = %d, want 11", p.NumSites)
	}
	// Blocks: lib + callee + region entry + loop body + then + else +
	// 2 switch cases = 8.
	if p.NumBlocks != 8 {
		t.Errorf("NumBlocks = %d, want 8", p.NumBlocks)
	}

	// Call targets resolve to the callee entry even though the callee is
	// laid out after the call site (second-pass fixup).
	var calls []*Call
	for _, r := range p.Regions {
		WalkNodes(r.Body, func(n Node) {
			if c, ok := n.(*Call); ok {
				calls = append(calls, c)
			}
		})
	}
	for _, f := range p.Funcs {
		WalkNodes(f.Body, func(n Node) {
			if c, ok := n.(*Call); ok {
				calls = append(calls, c)
			}
		})
	}
	if len(calls) == 0 {
		t.Fatal("no call sites found")
	}
	for _, c := range calls {
		if c.Site.Target != c.Callee.Entry {
			t.Errorf("call at %#x targets %#x, callee entry %#x", c.Site.PC, c.Site.Target, c.Callee.Entry)
		}
	}

	// Switch case jumps rejoin at one point past every case.
	var sw *Switch
	WalkNodes(p.Regions[0].Body, func(n Node) {
		if s, ok := n.(*Switch); ok {
			sw = s
		}
	})
	join := sw.CaseJumps[0].Target
	for i, j := range sw.CaseJumps {
		if j.Target != join {
			t.Errorf("case jump %d targets %#x, want the shared join %#x", i, j.Target, join)
		}
		if sw.CaseAddrs[i] >= join {
			t.Errorf("case %d starts at %#x, past the join %#x", i, sw.CaseAddrs[i], join)
		}
	}
}

func TestLayoutLibrarySplitBounds(t *testing.T) {
	for _, split := range []int{-1, 3} {
		err := Layout(tiny(), split)
		if err == nil || !strings.Contains(err.Error(), "librarySplit") {
			t.Errorf("Layout with split %d: err = %v, want a librarySplit range error", split, err)
		}
	}
	// Both in-range extremes lay out fine.
	for _, split := range []int{0, 2} {
		if err := Layout(tiny(), split); err != nil {
			t.Errorf("Layout with split %d: %v", split, err)
		}
	}
}

func TestLayoutRejectsMalformedNodes(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Program)
		want string
	}{
		{"empty block", func(p *Program) {
			p.Regions[0].Body = &Straight{Block: NewBlock(nil)}
		}, "empty block"},
		{"nil branch", func(p *Program) {
			p.Regions[0].Body.(*Seq).Nodes[4].(*Switch).Site = nil
		}, "nil branch"},
		{"empty loop body", func(p *Program) {
			p.Regions[0].Body = &Loop{Body: &Seq{}, Back: &Branch{Size: 2}, Iters: FixedIters{N: 1}}
		}, "empty body"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := tiny()
			tc.mut(p)
			err := Layout(p, 1)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("err = %v, want one containing %q", err, tc.want)
			}
		})
	}
}

func TestValidateCatchesViolations(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Program)
		want string
	}{
		{"no name", func(p *Program) { p.Name = "" }, "no name"},
		{"no regions", func(p *Program) { p.Regions = nil }, "no regions"},
		{"not laid out", func(p *Program) { p.TextSize = 0 }, "no laid-out text"},
		{"bad weight", func(p *Program) { p.Regions[0].Weight = 0 }, "non-positive weight"},
		{"site out of range", func(p *Program) { p.NumSites = 2 }, "out of range"},
		{"block out of range", func(p *Program) { p.NumBlocks = 1 }, "out of range"},
		{"duplicate site", func(p *Program) {
			seq := p.Regions[0].Body.(*Seq)
			seq.Nodes[4].(*Switch).Site.ID = seq.Nodes[2].(*If).Cond.ID
		}, "twice"},
		{"zero-size branch", func(p *Program) {
			p.Regions[0].Body.(*Seq).Nodes[2].(*If).Cond.Size = 0
		}, "zero size"},
		{"branch outside text", func(p *Program) {
			p.Regions[0].Body.(*Seq).Nodes[2].(*If).Cond.PC = p.TextBase + isa.Addr(p.TextSize)
		}, "outside text"},
		{"if without behavior", func(p *Program) {
			p.Regions[0].Body.(*Seq).Nodes[2].(*If).Cond.Behavior = nil
		}, "no behavior"},
		{"non-backward loop", func(p *Program) {
			l := p.Regions[0].Body.(*Seq).Nodes[1].(*Loop)
			l.Back.Target = l.Back.PC + 2
		}, "not backward"},
		{"loop without iters", func(p *Program) {
			p.Regions[0].Body.(*Seq).Nodes[1].(*Loop).Iters = nil
		}, "iteration model"},
		{"call target mismatch", func(p *Program) {
			WalkNodes(p.Funcs[1].Body, func(n Node) {
				if c, ok := n.(*Call); ok {
					c.Site.Target++
				}
			})
		}, "callee entry"},
		{"indirect weight arity", func(p *Program) {
			p.Regions[0].Body.(*Seq).Nodes[3].(*IndirectCall).Weights = []float64{1}
		}, "weights"},
		{"pattern out of range", func(p *Program) {
			ic := p.Regions[0].Body.(*Seq).Nodes[3].(*IndirectCall)
			ic.Pattern = []int{0, 2}
		}, "pattern index"},
		{"switch weight arity", func(p *Program) {
			p.Regions[0].Body.(*Seq).Nodes[4].(*Switch).Weights = []float64{1}
		}, "weights"},
		{"return kind", func(p *Program) {
			p.Funcs[0].Ret.Kind = isa.KindCall
		}, "return"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := mustLayout(t, tiny(), 1)
			tc.mut(p)
			err := p.Validate()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("err = %v, want one containing %q", err, tc.want)
			}
		})
	}
}

func TestBlockAccounting(t *testing.T) {
	b := NewBlock([]uint8{2, 7, 4})
	if len(b.Sizes) != 3 || b.TotalBytes != 13 {
		t.Errorf("insts/TotalBytes = %d/%d, want 3/13", len(b.Sizes), b.TotalBytes)
	}
}

func TestIterModels(t *testing.T) {
	r := rng.New(1)

	if got := (FixedIters{N: 7}).Next(0, r); got != 7 {
		t.Errorf("FixedIters.Next = %d", got)
	}
	if got := (FixedIters{N: -3}).Next(0, r); got != 1 {
		t.Errorf("FixedIters with non-positive N: Next = %d, want clamp to 1", got)
	}

	u := UniformIters{Lo: 3, Hi: 9}
	for i := 0; i < 1000; i++ {
		if n := u.Next(uint64(i), r); n < 3 || n > 9 {
			t.Fatalf("UniformIters.Next = %d outside [3, 9]", n)
		}
	}
	if got := (UniformIters{Lo: -2, Hi: 0}).Next(0, r); got != 1 {
		t.Errorf("degenerate UniformIters.Next = %d, want clamp to 1", got)
	}

	ph := PhasedIters{Counts: []int{4, 8, 0}}
	want := []int{4, 8, 1, 4, 8, 1} // zero phase clamps to 1; cycle repeats
	for i, w := range want {
		if got := ph.Next(uint64(i), r); got != w {
			t.Errorf("PhasedIters.Next(%d) = %d, want %d", i, got, w)
		}
	}
}

func TestBehaviors(t *testing.T) {
	r := rng.New(42)

	// Degenerate biases short-circuit without consuming randomness.
	if (BiasedBehavior{P: 0}).Next(0, 0, r) {
		t.Error("P=0 took the branch")
	}
	if !(BiasedBehavior{P: 1}).Next(0, 0, r) {
		t.Error("P=1 fell through")
	}
	// A mid bias lands near its probability over many trials.
	taken := 0
	const trials = 20_000
	for i := 0; i < trials; i++ {
		if (BiasedBehavior{P: 0.3}).Next(0, 0, r) {
			taken++
		}
	}
	if f := float64(taken) / trials; f < 0.27 || f > 0.33 {
		t.Errorf("P=0.3 measured %.3f", f)
	}

	pat := PatternBehavior{Pattern: []bool{true, true, false}}
	for i := 0; i < 9; i++ {
		if got, want := pat.Next(uint64(i), 0, r), i%3 != 2; got != want {
			t.Errorf("pattern at %d = %v, want %v", i, got, want)
		}
	}

	// CorrelatedBehavior is a pure function of the history window: equal
	// windows agree regardless of higher bits, and some pair of windows
	// must disagree (the truth table is not constant).
	cb := CorrelatedBehavior{HistBits: 4, Salt: 0x1234, Bias: 0.5}
	differs := false
	for h := uint64(0); h < 16; h++ {
		a := cb.Next(0, h, r)
		if b := cb.Next(99, h|0xabcd0, r); a != b {
			t.Fatalf("outcome at history %#x depends on bits beyond HistBits", h)
		}
		if a != cb.Next(0, 0, r) {
			differs = true
		}
	}
	if !differs {
		t.Error("correlated truth table is constant")
	}
	// Out-of-range HistBits falls back to 8 rather than misbehaving.
	fb := CorrelatedBehavior{HistBits: 60, Salt: 1, Bias: 0.5}
	if got, want := fb.Next(0, 0x1ff, r), fb.Next(0, 0xff, r); got == want {
		_ = got // equal is allowed; the call must simply not panic
	}

	// MixedBehavior with zero noise is its base; with certain noise it
	// follows the noise coin.
	base := PatternBehavior{Pattern: []bool{true}}
	pure := MixedBehavior{Base: base, NoiseP: 0, NoiseTaken: 0}
	if !pure.Next(5, 0, r) {
		t.Error("noise-free mixed behavior overrode its base")
	}
	noisy := MixedBehavior{Base: base, NoiseP: 1, NoiseTaken: 0}
	if noisy.Next(5, 0, r) {
		t.Error("all-noise mixed behavior ignored the noise coin")
	}
}
