package analysis

import (
	"math"
	"strings"
	"testing"

	"rebalance/internal/isa"
	"rebalance/internal/trace"
)

// observe delivers a hand-built stream to a lane consumer one instruction
// at a time; observeBatch delivers it as one batch, which must not mix
// phases.
func observe(c trace.LaneConsumer, stream ...isa.Inst) {
	f := trace.NewFeed(c)
	for _, in := range stream {
		f.Observe(in)
	}
}

func observeBatch(c trace.LaneConsumer, batch []isa.Inst) { trace.NewFeed(c).ObserveBatch(batch) }

// inst is a shorthand constructor for hand-built streams.
func inst(pc isa.Addr, size uint8, kind isa.Kind, taken bool, target isa.Addr, serial bool) isa.Inst {
	return isa.Inst{PC: pc, Size: size, Kind: kind, Taken: taken, Target: target, Serial: serial}
}

func close2(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

func TestPhaseHelpers(t *testing.T) {
	for p, name := range map[Phase]string{Total: "total", Serial: "serial", Parallel: "parallel"} {
		if p.String() != name {
			t.Errorf("%d.String() = %q, want %q", p, p.String(), name)
		}
	}
	if got := Phase(9).String(); got != "phase?" {
		t.Errorf("out-of-range phase String() = %q", got)
	}
	pair := [2]int64{2, 3}
	if over(pair, Total) != 5 || over(pair, Serial) != 2 || over(pair, Parallel) != 3 {
		t.Errorf("over(%v) = %d/%d/%d, want 5/2/3", pair, over(pair, Total), over(pair, Serial), over(pair, Parallel))
	}
}

// TestBranchMixCounts drives a hand-built stream with known per-kind and
// per-phase counts through the feed, per instruction and per batch, and
// checks every derived Figure 1 statistic.
func TestBranchMixCounts(t *testing.T) {
	stream := []isa.Inst{
		inst(0x100, 4, isa.KindOther, false, 0, true),
		inst(0x104, 4, isa.KindOther, false, 0, true),
		inst(0x108, 2, isa.KindCondDirect, true, 0x100, true),
		inst(0x200, 4, isa.KindOther, false, 0, false),
		inst(0x204, 3, isa.KindIndirectCall, true, 0x400, false),
		inst(0x400, 1, isa.KindReturn, true, 0x207, false),
		inst(0x207, 2, isa.KindSyscall, true, 0x209, false),
	}
	single, batched := NewBranchMix(), NewBranchMix()
	observe(single, stream...)
	observeBatch(batched, stream[:3]) // the serial section
	observeBatch(batched, stream[3:]) // the parallel one

	for _, a := range []*BranchMix{single, batched} {
		r := a.Result()
		if r.InstCount(Total) != 7 || r.InstCount(Serial) != 3 || r.InstCount(Parallel) != 4 {
			t.Fatalf("insts = %d/%d/%d", r.InstCount(Total), r.InstCount(Serial), r.InstCount(Parallel))
		}
		if r.Count(Serial, isa.KindCondDirect) != 1 || r.Count(Parallel, isa.KindCondDirect) != 0 {
			t.Error("cond-direct miscounted")
		}
		if !close2(r.KindPct(Total, isa.KindOther), 100*3.0/7) {
			t.Errorf("other pct = %v", r.KindPct(Total, isa.KindOther))
		}
		// Branches: cond + indirect call + return + syscall = 4 of 7.
		if !close2(r.BranchPct(Total), 100*4.0/7) {
			t.Errorf("branch pct = %v", r.BranchPct(Total))
		}
		if !close2(r.BranchPct(Serial), 100*1.0/3) {
			t.Errorf("serial branch pct = %v", r.BranchPct(Serial))
		}
	}

	// The mergeable result merges by plain counter addition.
	r := single.Result()
	if err := r.Merge(batched.Result()); err != nil {
		t.Fatal(err)
	}
	if r.Insts != [2]int64{6, 8} {
		t.Errorf("merged insts = %v", r.Insts)
	}
	if err := r.Merge(&BiasResult{}); err == nil || !strings.Contains(err.Error(), "cannot merge") {
		t.Errorf("cross-type merge err = %v", err)
	}
	if e := NewBranchMix().Result(); e.KindPct(Total, isa.KindOther) != 0 || e.BranchPct(Total) != 0 {
		t.Error("empty result percentages not zero")
	}

	// A share is (100*c)/n, the form the goldens pin, not 100*(c/n): for
	// c=1024, n=53313 the two differ in the last ulp, and the literal is
	// what report_v1.golden.json carries for those counters.
	d := &MixResult{Insts: [2]int64{53313, 0}}
	d.Kinds[0][isa.KindCall] = 1024
	c, n := float64(1024), float64(53313)
	if got := d.KindPct(Total, isa.KindCall); got != 1.9207322791814379 || got != 100*c/n || got == 100*(c/n) {
		t.Errorf("KindPct = %v, want (100*c)/n = %v and not 100*(c/n) = %v", got, 100*c/n, 100*(c/n))
	}
}

// TestBiasSites checks the Figure 2 histogram and Table I splits over
// sites with exactly known rates.
func TestBiasSites(t *testing.T) {
	a := NewBias()
	// Site A (serial): taken 9 of 10, all backward — top bucket.
	for i := 0; i < 10; i++ {
		observe(a, inst(0x100, 2, isa.KindCondDirect, i < 9, 0x80, true))
	}
	// Site B (parallel): taken 1 of 4, forward — bucket 2 (25%).
	for i := 0; i < 4; i++ {
		observe(a, inst(0x200, 2, isa.KindCondDirect, i == 0, 0x300, false))
	}
	// Non-conditional instructions are ignored entirely.
	observe(a, inst(0x300, 3, isa.KindIndirectBranch, true, 0x100, false))
	observe(a, inst(0x304, 4, isa.KindOther, false, 0, false))

	r := a.Result()
	if len(r.Sites) != 2 {
		t.Fatalf("sites = %d, want 2", len(r.Sites))
	}
	h := r.Histogram(Total)
	if !close2(h.Fraction(9), 10.0/14) || !close2(h.Fraction(2), 4.0/14) {
		t.Errorf("histogram buckets: top %v (want %v), 20-30%% %v (want %v)",
			h.Fraction(9), 10.0/14, h.Fraction(2), 4.0/14)
	}
	// The biased share is the two extreme buckets.
	if got := h.Fraction(0) + h.Fraction(9); !close2(got, 10.0/14) {
		t.Errorf("biased fraction = %v", got)
	}
	if hp := r.Histogram(Parallel); !close2(hp.Fraction(0)+hp.Fraction(9), 0) || !close2(hp.Fraction(2), 1) {
		t.Errorf("parallel histogram: extremes %v, 20-30%% %v", hp.Fraction(0)+hp.Fraction(9), hp.Fraction(2))
	}
	back, fwd := r.TakenDirection(Total)
	if back != 9 || fwd != 1 {
		t.Errorf("taken direction = %d/%d, want 9 backward 1 forward", back, fwd)
	}
	if back, fwd := r.TakenDirection(Parallel); back != 0 || fwd != 1 {
		t.Errorf("parallel taken direction = %d/%d, want 0 backward 1 forward", back, fwd)
	}
	if r.Conds != [2]int64{10, 4} {
		t.Errorf("conds = %v, want [10 4]", r.Conds)
	}
	if back, fwd := NewBias().Result().TakenDirection(Total); back != 0 || fwd != 0 {
		t.Error("empty result directions not zero")
	}

	// Merging a result into a zero result reproduces the analyzer's own
	// report numbers through the wire encoding.
	merged := &BiasResult{}
	if err := merged.Merge(a.Result()); err != nil {
		t.Fatal(err)
	}
	enc1, err := a.Result().AppendJSON(nil)
	if err != nil {
		t.Fatal(err)
	}
	enc2, err := merged.AppendJSON(nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(enc1) != string(enc2) {
		t.Errorf("merged encoding differs:\n%s\n%s", enc1, enc2)
	}
	if err := merged.Merge(&MixResult{}); err == nil {
		t.Error("cross-type merge accepted")
	}

	// A batch counts like its instructions one at a time.
	b := NewBias()
	observeBatch(b, []isa.Inst{
		inst(0x100, 2, isa.KindCondDirect, true, 0x80, true),
		inst(0x100, 2, isa.KindCondDirect, false, 0x80, true),
	})
	s := b.Result().Sites[0x100]
	if s.Exec[0] != 2 || s.Taken[0] != 1 {
		t.Errorf("batched site counters = %+v", s)
	}
}

// TestBBLAccounting checks block and taken-run accounting on a stream
// with known geometry, including the partial-block-at-end rule.
func TestBBLAccounting(t *testing.T) {
	a := NewBBL()
	stream := []isa.Inst{
		// Block 1: 4+4+2 = 10 bytes, ends in a not-taken branch.
		inst(0x100, 4, isa.KindOther, false, 0, true),
		inst(0x104, 4, isa.KindOther, false, 0, true),
		inst(0x108, 2, isa.KindCondDirect, false, 0x200, true),
		// Block 2: 6+2 = 8 bytes, ends in a taken branch. The taken run
		// covers both blocks: 18 bytes.
		inst(0x10a, 6, isa.KindOther, false, 0, true),
		inst(0x110, 2, isa.KindCondDirect, true, 0x100, true),
		// A trailing partial block that must not be counted.
		inst(0x100, 4, isa.KindOther, false, 0, true),
	}
	observeBatch(a, stream)

	res := a.Result()
	if got := res.Blocks(Total); got != 2 {
		t.Fatalf("blocks = %d, want 2", got)
	}
	if got := res.AvgBlockBytes(Total); !close2(got, 9) {
		t.Errorf("avg block bytes = %v, want 9", got)
	}
	if got := res.AvgTakenDistance(Total); !close2(got, 18) {
		t.Errorf("avg taken distance = %v, want 18", got)
	}
	if got := res.AvgBlockBytes(Parallel); got != 0 {
		t.Errorf("parallel avg = %v, want 0 (no parallel blocks)", got)
	}

	// The result snapshot carries exact sums; merging two halves equals
	// observing the whole.
	b1, b2 := NewBBL(), NewBBL()
	observeBatch(b1, stream[:3])
	observeBatch(b2, stream[3:5])
	r := b1.Result()
	if err := r.Merge(b2.Result()); err != nil {
		t.Fatal(err)
	}
	if r.BlockN[0] != 2 || !close2(r.BlockSum[0], 18) {
		t.Errorf("merged result = %+v", r)
	}
	if err := r.Merge(&MixResult{}); err == nil {
		t.Error("cross-type merge accepted")
	}
}

// TestFootprintAccounting checks chunk accounting, that coalescing a lane's
// instructions per chunk equals counting them one by one, and coverage
// monotonicity.
func TestFootprintAccounting(t *testing.T) {
	// A hot 32-byte chunk (90 insts), a warm one (9), a cold one (1).
	var stream []isa.Inst
	add := func(pc isa.Addr, n int, serial bool) {
		for i := 0; i < n; i++ {
			stream = append(stream, inst(pc, 4, isa.KindOther, false, 0, serial))
		}
	}
	add(0x1000, 90, true)
	add(0x1040, 9, false)
	add(0x1080, 1, false)

	single, batched := NewFootprint(), NewFootprint()
	observe(single, stream...)
	observeBatch(batched, stream[:90]) // the serial section
	observeBatch(batched, stream[90:]) // the parallel one
	for _, a := range []*Footprint{single, batched} {
		r := a.Result(4096)
		if got := r.DynamicBytes(Total, 1); got != 96 {
			t.Errorf("touched = %d, want 96", got)
		}
		if got := r.DynamicBytes(Total, 0.90); got != 32 {
			t.Errorf("dyn90 = %d, want the one hot chunk", got)
		}
		if got := r.DynamicBytes(Total, 0.99); got != 64 {
			t.Errorf("dyn99 = %d, want hot+warm", got)
		}
		if got := r.DynamicBytes(Serial, 1); got != 32 {
			t.Errorf("serial touched = %d, want 32", got)
		}
	}

	// An instruction's chunk is its first byte's chunk: a straddling
	// instruction at 0x103e counts once, in chunk 0x1020/32.
	s := NewFootprint()
	observe(s, inst(0x103e, 4, isa.KindOther, false, 0, true))
	if got := s.Result(0).DynamicBytes(Total, 1); got != 32 {
		t.Errorf("straddling inst touched %d bytes of accounting, want 32", got)
	}

	// Merge adds chunk weights and enforces same-program static sizes.
	r := single.Result(4096)
	if err := r.Merge(batched.Result(4096)); err != nil {
		t.Fatal(err)
	}
	if got := r.Chunks[0][uint64(0x1000)/32]; got != 180 {
		t.Errorf("merged hot chunk weight = %d, want 180", got)
	}
	if err := r.Merge(single.Result(8192)); err == nil || !strings.Contains(err.Error(), "different programs") {
		t.Errorf("static-size mismatch err = %v", err)
	}
	if err := r.Merge(&BBLResult{}); err == nil {
		t.Error("cross-type merge accepted")
	}
	// A zero result adopts the first merged static size.
	fresh := &FootprintResult{}
	if err := fresh.Merge(single.Result(4096)); err != nil {
		t.Fatal(err)
	}
	if fresh.StaticBytes != 4096 {
		t.Errorf("adopted static = %d", fresh.StaticBytes)
	}
}
