package icache

import (
	"math"
	"strconv"
	"strings"
	"testing"

	"rebalance/internal/isa"
	"rebalance/internal/trace"
	"rebalance/internal/wire"
)

func inst(pc isa.Addr, serial bool) isa.Inst {
	return isa.Inst{PC: pc, Size: 4, Kind: isa.KindOther, Serial: serial}
}

func TestObserveCountersAndUsefulness(t *testing.T) {
	c := New(8*1024, 64, 2)
	feed := trace.NewFeed(c)
	// Walk one 64B line: one access (miss) then re-references that hit.
	for pc := isa.Addr(0); pc < 64; pc += 4 {
		feed.Observe(inst(pc, true))
	}
	// Result is the only exit: it counts the still-resident line itself
	// (one 64B line = 8 sectors, all consumed), with no Finish step to
	// forget, and it leaves the cache as it was.
	r := c.Result()
	if again := c.Result(); *again != *r {
		t.Errorf("second Result() = %+v, first %+v", again, r)
	}
	if r.Insts[0] != 16 || r.Insts[1] != 0 {
		t.Errorf("insts = %v, want [16 0]", r.Insts)
	}
	if r.Misses[0] != 1 {
		t.Errorf("misses = %v, want exactly the cold fill", r.Misses)
	}
	if r.Accesses[0] == 0 {
		t.Error("no accesses recorded")
	}
	if r.UsedSectors != 8 || r.TotalSectors != 8 {
		t.Errorf("usefulness sectors = %d/%d, want 8/8: the resident line, fully used", r.UsedSectors, r.TotalSectors)
	}
	if r.Usefulness() != 1 {
		t.Errorf("usefulness = %v, want 1", r.Usefulness())
	}
}

// TestLRUAcrossTheClock32Boundary: one 2-way set probed A, B, A, C, A
// misses on A, B and C only — C evicts B, the least recently used — from a
// clock of 0 and from one three probes short of 2^32, where a 32-bit clock
// would wrap and stamp the most recent use of A the least.
func TestLRUAcrossTheClock32Boundary(t *testing.T) {
	for _, start := range []uint64{0, 1<<32 - 3} {
		c := New(128, 64, 2)
		c.lines.Advance(start)
		var l isa.Lane
		for _, lineAddr := range []isa.Addr{1, 2, 1, 3, 1} {
			pc := lineAddr * 64
			l.Runs = append(l.Runs, isa.Run{Start: pc, PC: pc, Bytes: 4, Insts: 1, Taken: true})
			l.Sizes = append(l.Sizes, 4)
		}
		l.Insts = len(l.Sizes)
		c.ConsumeLane(&l)
		if got := c.Result().Misses[0]; got != 3 {
			t.Errorf("clock from %d: %d misses, want 3", start, got)
		}
	}
}

// TestGeometryError: a geometry is usable only with positive sizes, lines of
// 16 to 128 bytes in whole sectors, a size of whole lines, whole sets and at
// most MaxSizeBytes — a request cannot ask for a cache the process cannot
// allocate, nor one it would report under a size it does not have.
func TestGeometryError(t *testing.T) {
	for _, tc := range []struct {
		size, line, ways int64
		ok               bool
	}{
		{8 << 10, 64, 2, true}, {32 << 10, 128, 8, true}, {MaxSizeBytes, 64, 1, true}, {MaxSizeBytes, 16, 4, true},
		{0, 64, 2, false}, {-8 << 10, 64, 2, false}, {8 << 10, 0, 2, false}, {8 << 10, 64, 0, false},
		{8 << 10, 8, 2, false}, {8 << 10, 256, 2, false}, {8 << 10, 60, 2, false}, {192, 64, 2, false},
		{3 << 10, 24, 2, true}, {1 << 10, 24, 2, false},
		{MaxSizeBytes + 64, 64, 1, false}, {MaxSizeBytes * 2, 64, 2, false}, {1 << 50, 64, 1, false},
	} {
		if err := GeometryError(tc.size, tc.line, tc.ways); (err == nil) != tc.ok {
			t.Errorf("GeometryError(%d, %d, %d) = %v, want ok %v", tc.size, tc.line, tc.ways, err, tc.ok)
		}
	}
}

func TestResultMerge(t *testing.T) {
	a := &Result{Name: "8KB, 64B-line, 2-way", SizeBytes: 8192, LineBytes: 64, Ways: 2,
		Insts: [2]int64{100, 10}, Accesses: [2]int64{30, 3}, Misses: [2]int64{5, 1}, UsedSectors: 8, TotalSectors: 16}
	b := &Result{Name: "8KB, 64B-line, 2-way", SizeBytes: 8192, LineBytes: 64, Ways: 2,
		Insts: [2]int64{50, 5}, Accesses: [2]int64{10, 1}, Misses: [2]int64{2, 0}, UsedSectors: 4, TotalSectors: 8}

	var acc Result
	if err := acc.Merge(a); err != nil {
		t.Fatal(err)
	}
	if err := acc.Merge(b); err != nil {
		t.Fatal(err)
	}
	if acc.SizeBytes != 8192 || acc.LineBytes != 64 || acc.Ways != 2 {
		t.Errorf("accumulator did not adopt geometry: %+v", acc)
	}
	if acc.Insts != [2]int64{150, 15} || acc.Accesses != [2]int64{40, 4} || acc.Misses != [2]int64{7, 1} {
		t.Errorf("merged counters wrong: %+v", acc)
	}
	if acc.UsedSectors != 12 || acc.TotalSectors != 24 {
		t.Errorf("merged sectors = %d/%d, want 12/24", acc.UsedSectors, acc.TotalSectors)
	}

	other := &Result{Name: "16KB, 64B-line, 4-way", SizeBytes: 16384, LineBytes: 64, Ways: 4}
	if err := acc.Merge(other); err == nil || !strings.Contains(err.Error(), "cannot merge") {
		t.Errorf("cross-geometry merge: err = %v", err)
	}
	if err := acc.Merge(42); err == nil {
		t.Error("merging a foreign type did not error")
	}
}

// TestDecodeRoundTrip pins the wire contract, including the used/total
// sector counters the usefulness metric merges on.
func TestDecodeRoundTrip(t *testing.T) {
	c := New(8*1024, 64, 2)
	feed := trace.NewFeed(c)
	for pc := isa.Addr(0); pc < 20_000; pc += 4 {
		feed.Observe(inst(pc, pc%128 == 0))
	}
	r := c.Result()
	enc, err := r.AppendJSON(nil)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := wire.Decode(enc, ScanResult)
	if err != nil {
		t.Fatal(err)
	}
	if *dec != *r {
		t.Errorf("decoded result differs:\n got %+v\nwant %+v", dec, r)
	}
	re, err := dec.AppendJSON(nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(re) != string(enc) {
		t.Errorf("re-encode not byte-identical:\n got %s\nwant %s", re, enc)
	}
}

func TestDecodeRejectsMangledArtifacts(t *testing.T) {
	for name, in := range map[string]string{
		"unknown field": `{"name":"x","size_bytes":8192,"line_bytes":64,"ways":2,"insts":[1,0],"accesses":[1,0],"misses":[0,0],"used_sectors":0,"total_sectors":0,"mpki":0,"mpki_serial":0,"mpki_parallel":0,"miss_rate":0,"usefulness":0,"bogus":true}`,
		"malformed":     `{"name":`,
		"wrong shape":   `"just a string"`,
		// One past the host's int, which a 32-bit host would have wrapped.
		"size past int": `{"name":"x","size_bytes":` + strconv.FormatUint(uint64(math.MaxInt)+1, 10) + `,"line_bytes":64,"ways":2,"insts":[1,0],"accesses":[1,0],"misses":[0,0],"used_sectors":0,"total_sectors":0,"mpki":0,"mpki_serial":0,"mpki_parallel":0,"miss_rate":0,"usefulness":0}`,
	} {
		if _, err := wire.Decode([]byte(in), ScanResult); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}

func TestMergeAfterDecodeEqualsInProcessMerge(t *testing.T) {
	mk := func(base isa.Addr) *Result {
		c := New(8*1024, 64, 2)
		feed := trace.NewFeed(c)
		for pc := base; pc < base+10_000; pc += 4 {
			feed.Observe(inst(pc, true))
		}
		return c.Result()
	}
	a, b := mk(0), mk(1<<20)

	var direct Result
	if err := direct.Merge(a); err != nil {
		t.Fatal(err)
	}
	if err := direct.Merge(b); err != nil {
		t.Fatal(err)
	}

	var viaWire Result
	for _, r := range []*Result{a, b} {
		enc, err := r.AppendJSON(nil)
		if err != nil {
			t.Fatal(err)
		}
		dec, err := wire.Decode(enc, ScanResult)
		if err != nil {
			t.Fatal(err)
		}
		if err := viaWire.Merge(dec); err != nil {
			t.Fatal(err)
		}
	}
	de, _ := direct.AppendJSON(nil)
	we, _ := viaWire.AppendJSON(nil)
	if string(de) != string(we) {
		t.Errorf("wire-merged result differs from in-process merge:\n%s\n%s", we, de)
	}
}
