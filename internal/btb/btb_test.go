package btb

import (
	"strings"
	"testing"

	"rebalance/internal/isa"
	"rebalance/internal/trace"
	"rebalance/internal/wire"
)

// takenBranch is a taken direct branch at pc, the only instruction class
// that probes the BTB.
func takenBranch(pc isa.Addr, serial bool) isa.Inst {
	return isa.Inst{PC: pc, Size: 2, Kind: isa.KindCall, Taken: true, Target: pc + 64, Serial: serial}
}

func TestObserveCountersAndRepeatHit(t *testing.T) {
	b := New(256, 2)
	feed := trace.NewFeed(b)
	// First sight of a target misses; a repeat of the same PC hits.
	feed.Observe(takenBranch(0x1000, true))
	feed.Observe(takenBranch(0x1000, true))
	feed.Observe(isa.Inst{PC: 0x2000, Size: 4, Kind: isa.KindOther, Serial: false})
	r := b.Result()
	if r.Insts[0] != 2 || r.Insts[1] != 1 {
		t.Errorf("insts = %v, want [2 1]", r.Insts)
	}
	if r.Lookups[0] != 2 || r.Misses[0] != 1 {
		t.Errorf("serial lookups=%d misses=%d, want 2 lookups and exactly 1 miss", r.Lookups[0], r.Misses[0])
	}
	if r.MissRate() != 0.5 {
		t.Errorf("miss rate = %v, want 0.5", r.MissRate())
	}
	if want := 1000 * 1.0 / 3.0; r.MPKI() != want {
		t.Errorf("mpki = %v, want %v", r.MPKI(), want)
	}
}

// TestGeometryError: a geometry is usable only with positive sizes, whole
// sets and at most MaxEntries entries — a request cannot ask for a table the
// process cannot allocate.
func TestGeometryError(t *testing.T) {
	for _, tc := range []struct {
		entries, ways int
		ok            bool
	}{
		{256, 2, true}, {1024, 8, true}, {MaxEntries, 1, true}, {MaxEntries, MaxEntries, true},
		{0, 1, false}, {-256, 2, false}, {256, 0, false}, {256, -2, false}, {100, 3, false},
		{MaxEntries + 1, 1, false}, {MaxEntries * 2, 2, false}, {1 << 40, 1, false},
	} {
		if err := GeometryError(tc.entries, tc.ways); (err == nil) != tc.ok {
			t.Errorf("GeometryError(%d, %d) = %v, want ok %v", tc.entries, tc.ways, err, tc.ok)
		}
	}
}

func TestResultMerge(t *testing.T) {
	a := &Result{Name: "256-entry, 2-way", Entries: 256, Ways: 2, Insts: [2]int64{100, 10}, Lookups: [2]int64{20, 2}, Misses: [2]int64{5, 1}}
	b := &Result{Name: "256-entry, 2-way", Entries: 256, Ways: 2, Insts: [2]int64{50, 5}, Lookups: [2]int64{10, 1}, Misses: [2]int64{2, 0}}

	// A zero receiver adopts the other's geometry — the accumulator shape
	// the sim merge loop relies on.
	var acc Result
	if err := acc.Merge(a); err != nil {
		t.Fatal(err)
	}
	if err := acc.Merge(b); err != nil {
		t.Fatal(err)
	}
	if acc.Entries != 256 || acc.Ways != 2 || acc.Name != a.Name {
		t.Errorf("accumulator did not adopt geometry: %+v", acc)
	}
	if acc.Insts != [2]int64{150, 15} || acc.Lookups != [2]int64{30, 3} || acc.Misses != [2]int64{7, 1} {
		t.Errorf("merged counters wrong: %+v", acc)
	}

	// Mismatched geometries must refuse to merge.
	other := &Result{Name: "512-entry, 4-way", Entries: 512, Ways: 4}
	if err := acc.Merge(other); err == nil || !strings.Contains(err.Error(), "cannot merge") {
		t.Errorf("cross-geometry merge: err = %v", err)
	}
	// And so must foreign types.
	if err := acc.Merge("not a result"); err == nil {
		t.Error("merging a foreign type did not error")
	}
}

// TestDecodeRoundTrip pins the wire contract: Decode(Encode(r)) restores
// the counters exactly and re-encodes to byte-identical JSON, which is
// what lets remote shards fold without re-deriving.
func TestDecodeRoundTrip(t *testing.T) {
	b := New(512, 4)
	feed := trace.NewFeed(b)
	for pc := isa.Addr(0); pc < 100*64; pc += 64 {
		feed.Observe(takenBranch(pc, pc%128 == 0))
	}
	r := b.Result()
	enc, err := r.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	dec, err := wire.Decode(enc, NewTarget)
	if err != nil {
		t.Fatal(err)
	}
	if *dec != *r {
		t.Errorf("decoded result differs:\n got %+v\nwant %+v", dec, r)
	}
	re, err := dec.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(re) != string(enc) {
		t.Errorf("re-encode not byte-identical:\n got %s\nwant %s", re, enc)
	}
}

func TestDecodeRejectsMangledArtifacts(t *testing.T) {
	for name, in := range map[string]string{
		"unknown field": `{"name":"x","entries":256,"ways":2,"insts":[1,0],"lookups":[1,0],"misses":[0,0],"mpki":0,"mpki_serial":0,"mpki_parallel":0,"miss_rate":0,"extra":1}`,
		"malformed":     `{"name":`,
		"wrong shape":   `[1,2,3]`,
	} {
		if _, err := wire.Decode([]byte(in), NewTarget); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}

func TestMergeAfterDecodeEqualsInProcessMerge(t *testing.T) {
	mk := func(seedPC isa.Addr) *Result {
		b := New(256, 2)
		feed := trace.NewFeed(b)
		for pc := seedPC; pc < seedPC+50*32; pc += 32 {
			feed.Observe(takenBranch(pc, true))
		}
		return b.Result()
	}
	a, b := mk(0x1000), mk(0x9000)

	var direct Result
	if err := direct.Merge(a); err != nil {
		t.Fatal(err)
	}
	if err := direct.Merge(b); err != nil {
		t.Fatal(err)
	}

	var viaWire Result
	for _, r := range []*Result{a, b} {
		enc, err := r.EncodeJSON()
		if err != nil {
			t.Fatal(err)
		}
		dec, err := wire.Decode(enc, NewTarget)
		if err != nil {
			t.Fatal(err)
		}
		if err := viaWire.Merge(dec); err != nil {
			t.Fatal(err)
		}
	}
	de, _ := direct.EncodeJSON()
	we, _ := viaWire.EncodeJSON()
	if string(de) != string(we) {
		t.Errorf("wire-merged result differs from in-process merge:\n%s\n%s", we, de)
	}
}
