package bpred

import (
	"fmt"
	"strings"
	"testing"

	"rebalance/internal/isa"
)

// TestNewTAGEStatesItsLimits: a spec outside what the stage layout holds — a
// LogSize or TagBits outside 2..16, more than 16 tables — panics naming it,
// instead of dividing by zero (a 1-bit tag's second fold has no bits) or
// truncating a tag wider than its uint16 store; tables at the bounds match
// the reference model on each stage.
func TestNewTAGEStatesItsLimits(t *testing.T) {
	seventeen := make([]tageSpec, 17)
	for i := range seventeen {
		seventeen[i] = tageSpec{HistLen: i + 1, LogSize: 4, TagBits: 4}
	}
	ok := tageSpec{HistLen: 4, LogSize: 9, TagBits: 9}
	for _, c := range []struct {
		specs []tageSpec
		panic string
	}{
		{[]tageSpec{{HistLen: 4, LogSize: 9, TagBits: 1}}, "{HistLen:4 LogSize:9 TagBits:1}"},
		{[]tageSpec{ok, {HistLen: 8, LogSize: 9, TagBits: 17}}, "{HistLen:8 LogSize:9 TagBits:17}"},
		{[]tageSpec{{HistLen: 4, LogSize: 1, TagBits: 9}}, "{HistLen:4 LogSize:1 TagBits:9}"},
		{[]tageSpec{{HistLen: 4, LogSize: 17, TagBits: 9}}, "{HistLen:4 LogSize:17 TagBits:9}"},
		{seventeen, "at most 16 tables, got 17"},
		{[]tageSpec{ok, ok}, "increasing history lengths"},
	} {
		func() {
			defer func() {
				if msg := fmt.Sprint(recover()); !strings.Contains(msg, c.panic) {
					t.Errorf("NewTAGE(%v) panicked with %q, want it to name %q", c.specs, msg, c.panic)
				}
			}()
			NewTAGE("limits", 4, c.specs)
		}()
	}
	bounds := []tageSpec{{HistLen: 3, LogSize: 2, TagBits: 2}, {HistLen: 40, LogSize: 16, TagBits: 16}, {HistLen: 41, LogSize: 16, TagBits: 2}}
	for _, avx2 := range tageStages(t) {
		matchReference(t, newTAGE("bounds", 4, bounds, avx2), newRefTAGE("bounds", 4, bounds), 4096, func(i int) (isa.Addr, bool) {
			return isa.Addr(0x400000 + 4*(i*7%61)), i%3 != 0
		})
	}
}

// TestTAGEStageSelection: NewTAGE runs the AVX2 kernel exactly where the CPU
// has AVX2 and there are more than 8 tables.
func TestTAGEStageSelection(t *testing.T) {
	specs := make([]tageSpec, 16)
	for i := range specs {
		specs[i] = tageSpec{HistLen: i + 1, LogSize: 16, TagBits: 16}
	}
	for _, c := range []struct {
		t    *TAGE
		avx2 bool
	}{
		{NewTAGEBig(), haveAVX2},
		{NewTAGESmall(), false},
		{NewTAGE("eight", 4, specs[:8]), false},
		{NewTAGE("nine", 4, specs[:9]), haveAVX2},
		{NewTAGE("sixteen", 4, specs), haveAVX2},
	} {
		if c.t.avx2 != c.avx2 {
			t.Errorf("%s (%d tables) runs the %s stage, haveAVX2 = %v", c.t.name, len(c.t.tables), stageName(c.t.avx2), haveAVX2)
		}
	}
}

// TestTAGEHighPCBitsAreInert pins the 32-bit lanes (see tageKernel): a stream
// and the same stream with bit 40 set in every PC get the same predictions
// from the reference model and from each stage, on both built-in geometries.
func TestTAGEHighPCBitsAreInert(t *testing.T) {
	var conds []isa.Inst
	for _, in := range recordStream(t, "xalan-lite", 100_000) {
		if in.Kind.IsConditional() {
			conds = append(conds, in)
		}
	}
	type accessor interface{ Access(isa.Addr, bool) bool }
	for _, build := range []func() *TAGE{NewTAGEBig, NewTAGESmall} {
		models := []func() accessor{func() accessor { return refFor(t, build()) }}
		for _, avx2 := range tageStages(t) {
			models = append(models, func() accessor { return restage(t, build(), avx2) })
		}
		for m, model := range models {
			low, high := model(), model()
			for i := 0; i < 4*len(conds); i++ {
				in := &conds[i%len(conds)]
				if l, h := low.Access(in.PC, in.Taken), high.Access(in.PC|1<<40, in.Taken); l != h {
					t.Fatalf("%s, model %d (the reference, then each stage): access %d (pc %#x) predicted %v, %v with bit 40 set", build().name, m, i, in.PC, l, h)
				}
			}
		}
	}
}

// FuzzTAGEStage holds the per-table stage to the reference model's folded
// registers and 64-bit hashes (refTageTable), and the AVX2 kernel to the Go
// stage, access by access: hits, every table's index and tag, and all three
// folds. Layouts are random — 1 to 16 tables of 2^4 to 2^16 entries with 4-
// to 16-bit tags, histories up to 1024 — and so are the 64-bit PCs (eight
// sites, half with bits set above 2^32 and 2^40) and path histories, whose
// high bits the stage never sees. Each access stores the computed tags of
// some tables, so later accesses hit. Without AVX2 only the Go stage is
// checked.
func FuzzTAGEStage(f *testing.F) {
	f.Add([]byte{11, 3, 5, 5, 9, 5, 5, 9, 5, 7, 5, 5, 9, 5, 5, 14, 5, 5, 23, 5, 7, 36, 5, 7, 58, 5, 7, 63, 5, 7, 63, 5, 7, 63, 5, 7}, uint64(1))
	f.Add([]byte{15, 63, 12, 12, 63, 0, 12, 63, 12, 0, 63, 3, 3, 63, 12, 12, 63, 12, 12, 63, 12, 12, 63, 12, 12, 63, 12, 12, 63, 12, 12, 63, 12, 12, 63, 12, 12, 63, 12, 12, 63, 12, 12, 63, 12, 12, 63, 12, 12, 63, 12, 12}, uint64(0xdead_beef_cafe))
	// Tags one bit wider and one bit narrower than the index, under
	// histories longer than either.
	f.Add([]byte{2, 39, 5, 6, 63, 8, 9, 63, 12, 11}, uint64(7))
	f.Fuzz(func(t *testing.T, shape []byte, seed uint64) {
		next := func() int {
			if len(shape) == 0 {
				return 0
			}
			b := int(shape[0])
			shape = shape[1:]
			return b
		}
		specs := make([]tageSpec, 1+next()%16)
		hist := 0
		for i := range specs {
			hist += 1 + next()%64
			specs[i] = tageSpec{HistLen: hist, LogSize: uint(4 + next()%13), TagBits: uint(4 + next()%13)}
		}
		x := seed
		rand := func() uint64 { // SplitMix64
			x += 0x9e3779b97f4a7c15
			z := (x ^ x>>30) * 0xbf58476d1ce4e5b9
			z = (z ^ z>>27) * 0x94d049bb133111eb
			return z ^ z>>31
		}
		var sites [8]isa.Addr
		for i := range sites {
			sites[i] = isa.Addr(rand() | 1<<40 | 1<<33)
			if i%2 == 1 {
				sites[i] &= 1<<32 - 1
			}
		}
		ref := newRefTAGE("fuzz", 4, specs)
		stages := []*TAGE{newTAGE("fuzz", 4, specs, false)}
		if haveAVX2 {
			stages = append(stages, newTAGE("fuzz", 4, specs, true))
		}
		g, mask, n := stages[0], stages[0].ghistMask, len(specs)
		path, pos := rand(), uint32(0)
		for step := 0; step < 2048; step++ {
			r := rand()
			pc, newBit := sites[r%8], uint64(g.ghist[pos])
			var want uint32
			for i, tb := range ref.tables {
				old := uint64(g.ghist[(pos-uint32(tb.histLen))&mask])
				tb.foldIdx.update(newBit, old)
				tb.foldTag1.update(newBit, old)
				tb.foldTag2.update(newBit, old)
				want |= uint32(b2u(g.tables[i].tag[tb.index(pc, path)] == tb.tagOf(pc))) << i
			}
			for _, s := range stages {
				stage := tageStage
				if s.avx2 {
					stage = tageStageAVX2
				}
				if hits := stage(&s.k, s.ghist, s.tags, uint32(pcIndexBits(pc)), uint32(path), uint32(newBit), pos, mask, n); hits != want {
					t.Fatalf("%v on the %s stage, access %d: hits %b, want %b", specs, stageName(s.avx2), step, hits, want)
				}
				for i, tb := range ref.tables {
					got := [5]uint64{uint64(s.k.idx[i]), uint64(s.k.tag[i]), uint64(s.k.fold[0][i]), uint64(s.k.fold[1][i]), uint64(s.k.fold[2][i])}
					exp := [5]uint64{tb.index(pc, path), uint64(tb.tagOf(pc)), tb.foldIdx.comp, tb.foldTag1.comp, tb.foldTag2.comp}
					if got != exp {
						t.Fatalf("%v on the %s stage, access %d, table %d: idx, tag, folds %v, want %v", specs, stageName(s.avx2), step, i, got, exp)
					}
				}
				if s.k != g.k {
					t.Fatalf("%v, access %d: the %s stage's layout differs from the Go stage's", specs, step, stageName(s.avx2))
				}
			}
			for i, tb := range ref.tables {
				if r>>(8+i)&1 == 1 {
					for _, s := range stages {
						s.tables[i].tag[s.k.idx[i]] = uint16(tb.tagOf(pc))
					}
				}
			}
			pos = (pos + 1) & mask
			bit := uint8(r >> 63)
			for _, s := range stages {
				s.ghist[pos] = bit
			}
			path = path<<1 | r>>62&1
		}
	})
}
