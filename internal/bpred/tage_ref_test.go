package bpred

import (
	"fmt"
	"math/bits"
	"reflect"
	"testing"

	"rebalance/internal/isa"
)

// refTAGE is the straightforward TAGE that TAGE is held to: every table
// behind a pointer, three folded registers per table each updated on every
// access, and each table hashing the address and path on its own. It is the
// implementation TAGE replaced, kept verbatim but for its names (and its own
// copies of the folded register and counter helper), so that a rewrite of
// TAGE is compared against an independent model rather than against itself.
// Its base is refBimodal, so no counter update is shared with TAGE either.
type refTAGE struct {
	name string

	base   *refBimodal
	tables []*refTageTable

	ghist     []uint8
	ghistMask int
	ghistPos  int

	pathHist uint64

	useAltOnNA int

	lfsr uint32

	accesses uint64

	scratchIdx []uint64
	scratchTag []uint16
}

type refTageTable struct {
	histLen  int
	logSize  uint
	tagBits  uint
	tag      []uint16
	ctr      []int8
	useful   []uint8
	foldIdx  refFolded
	foldTag1 refFolded
	foldTag2 refFolded
}

type refFolded struct {
	comp    uint64
	mask    uint64
	compLen uint8
	outPt   uint8
}

func newRefFolded(histLen int, compLen uint) refFolded {
	return refFolded{
		mask:    uint64(1)<<compLen - 1,
		compLen: uint8(compLen),
		outPt:   uint8(uint(histLen) % compLen),
	}
}

func (f *refFolded) update(newBit, oldBit uint64) {
	c := (f.comp << 1) | newBit
	c ^= oldBit << f.outPt
	c ^= c >> f.compLen
	f.comp = c & f.mask
}

func newRefTAGE(name string, baseLog uint, specs []tageSpec) *refTAGE {
	t := &refTAGE{
		name: name,
		base: newRefBimodal(baseLog),
		lfsr: 0xACE1,
	}
	maxHist := 0
	for i, s := range specs {
		if s.HistLen <= 0 || (i > 0 && s.HistLen <= specs[i-1].HistLen) {
			panic(fmt.Sprintf("bpred: TAGE specs must have increasing history lengths, got %v", specs))
		}
		tb := &refTageTable{
			histLen:  s.HistLen,
			logSize:  s.LogSize,
			tagBits:  s.TagBits,
			tag:      make([]uint16, 1<<s.LogSize),
			ctr:      make([]int8, 1<<s.LogSize),
			useful:   make([]uint8, 1<<s.LogSize),
			foldIdx:  newRefFolded(s.HistLen, s.LogSize),
			foldTag1: newRefFolded(s.HistLen, s.TagBits),
			foldTag2: newRefFolded(s.HistLen, s.TagBits-1),
		}
		t.tables = append(t.tables, tb)
		if s.HistLen > maxHist {
			maxHist = s.HistLen
		}
	}
	ghistLen := 1
	for ghistLen < maxHist+1 {
		ghistLen <<= 1
	}
	t.ghist = make([]uint8, ghistLen)
	t.ghistMask = ghistLen - 1
	t.scratchIdx = make([]uint64, len(t.tables))
	t.scratchTag = make([]uint16, len(t.tables))
	return t
}

func (t *refTAGE) histBit(age int) uint64 {
	return uint64(t.ghist[(t.ghistPos-age)&t.ghistMask])
}

func (tb *refTageTable) index(pc isa.Addr, path uint64) uint64 {
	mask := uint64(1)<<tb.logSize - 1
	p := pcIndexBits(pc)
	return (p ^ (p >> (tb.logSize - 2)) ^ tb.foldIdx.comp ^ (path & mask)) & mask
}

func (tb *refTageTable) tagOf(pc isa.Addr) uint16 {
	mask := uint64(1)<<tb.tagBits - 1
	p := pcIndexBits(pc)
	return uint16((p ^ tb.foldTag1.comp ^ (tb.foldTag2.comp << 1)) & mask)
}

func (t *refTAGE) rand() uint32 {
	lsb := t.lfsr & 1
	t.lfsr >>= 1
	if lsb != 0 {
		t.lfsr ^= 0xB400
	}
	return t.lfsr
}

func (t *refTAGE) Access(pc isa.Addr, taken bool) bool {
	t.accesses++

	provider, altProvider := -1, -1
	var provIdx, altIdx uint64
	idxs := t.scratchIdx
	tags := t.scratchTag
	for i, tb := range t.tables {
		idxs[i] = tb.index(pc, t.pathHist)
		tags[i] = tb.tagOf(pc)
	}
	for i := len(t.tables) - 1; i >= 0; i-- {
		if t.tables[i].tag[idxs[i]] == tags[i] {
			if provider < 0 {
				provider = i
				provIdx = idxs[i]
			} else {
				altProvider = i
				altIdx = idxs[i]
				break
			}
		}
	}

	basePred := t.base.predict(pc)
	altPred := basePred
	if altProvider >= 0 {
		altPred = t.tables[altProvider].ctr[altIdx] >= 0
	}

	pred := altPred
	providerWeak := false
	if provider >= 0 {
		c := t.tables[provider].ctr[provIdx]
		providerWeak = (c == 0 || c == -1) && t.tables[provider].useful[provIdx] == 0
		if providerWeak && t.useAltOnNA >= 0 {
			pred = altPred
		} else {
			pred = c >= 0
		}
	}

	correct := pred == taken
	if provider >= 0 {
		tb := t.tables[provider]
		provPred := tb.ctr[provIdx] >= 0
		if providerWeak && provPred != altPred {
			if altPred == taken {
				if t.useAltOnNA < 7 {
					t.useAltOnNA++
				}
			} else if t.useAltOnNA > -8 {
				t.useAltOnNA--
			}
		}
		if provPred != altPred {
			if provPred == taken {
				if tb.useful[provIdx] < 3 {
					tb.useful[provIdx]++
				}
			} else if tb.useful[provIdx] > 0 {
				tb.useful[provIdx]--
			}
		}
		tb.ctr[provIdx] = refCtr3Update(tb.ctr[provIdx], taken)
		if providerWeak {
			if altProvider >= 0 {
				atb := t.tables[altProvider]
				atb.ctr[altIdx] = refCtr3Update(atb.ctr[altIdx], taken)
			} else {
				t.base.update(pc, taken)
			}
		}
	} else {
		t.base.update(pc, taken)
	}

	if !correct && provider < len(t.tables)-1 {
		start := provider + 1
		if start < len(t.tables)-1 && t.rand()&1 == 0 {
			start++
		}
		allocated := false
		for i := start; i < len(t.tables); i++ {
			tb := t.tables[i]
			if tb.useful[idxs[i]] == 0 {
				tb.tag[idxs[i]] = tags[i]
				if taken {
					tb.ctr[idxs[i]] = 0
				} else {
					tb.ctr[idxs[i]] = -1
				}
				tb.useful[idxs[i]] = 0
				allocated = true
				break
			}
		}
		if !allocated {
			for i := provider + 1; i < len(t.tables); i++ {
				tb := t.tables[i]
				if tb.useful[idxs[i]] > 0 {
					tb.useful[idxs[i]]--
				}
			}
		}
	}

	if t.accesses&(1<<18-1) == 0 {
		for _, tb := range t.tables {
			for i := range tb.useful {
				tb.useful[i] >>= 1
			}
		}
	}

	t.ghistPos = (t.ghistPos + 1) & t.ghistMask
	bit := uint8(0)
	if taken {
		bit = 1
	}
	t.ghist[t.ghistPos] = bit
	for _, tb := range t.tables {
		old := t.histBit(tb.histLen)
		tb.foldIdx.update(uint64(bit), old)
		tb.foldTag1.update(uint64(bit), old)
		tb.foldTag2.update(uint64(bit), old)
	}
	t.pathHist = (t.pathHist << 1) | (uint64(pc) >> 2 & 1)

	return pred
}

func refCtr3Update(c int8, taken bool) int8 {
	if taken {
		if c < 3 {
			return c + 1
		}
		return c
	}
	if c > -4 {
		return c - 1
	}
	return c
}

// tageSpecs reads t's geometry back from its base and its stage layout and
// checks it against the specs t was built from.
func tageSpecs(tb testing.TB, t *TAGE) (baseLog uint, specs []tageSpec) {
	tb.Helper()
	specs = make([]tageSpec, len(t.tables))
	for i := range specs {
		specs[i] = tageSpec{HistLen: int(t.k.histLen[i]), LogSize: uint(t.k.width[0][i]), TagBits: uint(t.k.width[1][i])}
	}
	baseLog = uint(bits.TrailingZeros(uint(len(t.base.tab))))
	if g := fmt.Sprint("tage/", baseLog, specs); g != t.geometry() {
		tb.Fatalf("tables read back as %s, built as %s", g, t.geometry())
	}
	return baseLog, specs
}

// refFor returns a power-on reference model of t's geometry.
func refFor(tb testing.TB, t *TAGE) *refTAGE {
	tb.Helper()
	baseLog, specs := tageSpecs(tb, t)
	return newRefTAGE(t.name, baseLog, specs)
}

// tageStages lists the stages this host runs, as newTAGE's avx2 argument: the
// Go stage, and the AVX2 kernel where the CPU has AVX2.
func tageStages(tb testing.TB) []bool {
	if !haveAVX2 {
		tb.Log("no AVX2 on this host: the kernel leg is skipped")
		return []bool{false}
	}
	return []bool{false, true}
}

// restage returns a power-on TAGE of t's geometry on the given stage.
func restage(tb testing.TB, t *TAGE, avx2 bool) *TAGE {
	tb.Helper()
	baseLog, specs := tageSpecs(tb, t)
	return newTAGE(t.name, baseLog, specs, avx2)
}

// stageName names a stage, given as newTAGE's avx2 argument, in test and
// benchmark output.
func stageName(avx2 bool) string {
	if avx2 {
		return "avx2"
	}
	return "go"
}

// matchReference drives got and its reference model over the same
// (pc, taken) sequence, failing at the first prediction that differs, and
// then compares every table entry.
func matchReference(tb testing.TB, got *TAGE, want *refTAGE, n int, branch func(i int) (isa.Addr, bool)) {
	tb.Helper()
	for i := 0; i < n; i++ {
		pc, taken := branch(i)
		if g, w := got.Access(pc, taken), want.Access(pc, taken); g != w {
			tb.Fatalf("%s on the %s stage: access %d (pc %#x, taken %v) predicted %v, reference %v", got.geometry(), stageName(got.avx2), i, pc, taken, g, w)
		}
	}
	if !reflect.DeepEqual(got.base.tab, want.base.tab) {
		tb.Fatalf("%s on the %s stage: base tables differ after %d accesses", got.geometry(), stageName(got.avx2), n)
	}
	for i := range want.tables {
		g, w := &got.tables[i], want.tables[i]
		if !reflect.DeepEqual(g.tag, w.tag) || !reflect.DeepEqual(g.ctr, w.ctr) || !reflect.DeepEqual(g.useful, w.useful) {
			tb.Fatalf("%s on the %s stage: table %d differs after %d accesses", got.geometry(), stageName(got.avx2), i, n)
		}
	}
}

// TestTAGEMatchesReference holds both built-in TAGEs, on each stage the host
// runs, to the reference model, prediction by prediction, on the conditional
// branches of 200k instructions of each built-in workload — cycled past the
// first useful-bit aging at 2^18 accesses, which no shorter stream reaches.
func TestTAGEMatchesReference(t *testing.T) {
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
		for _, build := range []func() *TAGE{NewTAGEBig, NewTAGESmall} {
			for _, avx2 := range tageStages(t) {
				got := restage(t, build(), avx2)
				matchReference(t, got, refFor(t, got), 1<<18+4096, func(i int) (isa.Addr, bool) {
					in := &conds[i%len(conds)]
					return in.PC, in.Taken
				})
			}
		}
	}
}

// FuzzTAGEMatchesReference holds TAGE, on each stage the host runs, to the
// reference model over random geometries — 1 to 16 tables with strictly
// increasing history lengths up to 1024, table sizes 2^4 to 2^12 shared by
// every table or drawn per table, tag widths 4 to 15 equal to the table's
// index width or not — and a (pc, taken) sequence drawn from the fuzz input,
// repeated to 4096 accesses so the longest histories fill.
func FuzzTAGEMatchesReference(f *testing.F) {
	// A shape is: table count - 1, 0 for one table size (then that size - 4)
	// or 1 for one per table, base size - 4, then per table the history
	// increment - 1, its size - 4 when sizes differ, and an even byte for a
	// tag as wide as the index or an odd b for a tag of 4 + b/2 bits.
	seq := make([]byte, 512)
	for i, x := 0, uint64(1); i < len(seq); i++ {
		x = x*6364136223846793005 + 1442695040888963407
		seq[i] = byte(x >> 56)
	}
	// Twelve tables of 2^9 entries, like tage-big: six folding their tags
	// with the index fold, six with 11-bit tags.
	f.Add([]byte{11, 0, 5, 9, 3, 0, 1, 0, 3, 0, 5, 0, 8, 0, 14, 0, 23, 15, 36, 15, 58, 15, 63, 15, 63, 15, 63, 15}, seq)
	// Sizes and tag widths mixed across tables, short histories included.
	f.Add([]byte{5, 1, 0, 6, 3, 0, 3, 4, 4, 0, 7, 8, 9, 10, 2, 0, 40, 5, 21, 63, 3, 0}, seq)
	// One size, no shared folds, sixteen tables out to 1024 bits of history.
	f.Add([]byte{15, 0, 8, 8, 63, 1, 63, 3, 63, 5, 63, 7, 63, 9, 63, 11, 63, 13, 63, 15, 63, 17, 63, 19, 63, 21, 63, 1, 63, 3, 63, 5, 63, 7, 63, 9}, seq[:64])
	f.Fuzz(func(t *testing.T, shape, seq []byte) {
		if len(seq) < 2 {
			return
		}
		next := func() int {
			if len(shape) == 0 {
				return 0
			}
			b := int(shape[0])
			shape = shape[1:]
			return b
		}
		n := 1 + next()%16
		uniform := next()%2 == 0
		common := uint(4 + next()%9)
		baseLog := uint(4 + next()%9)
		specs := make([]tageSpec, n)
		hist := 0
		for i := range specs {
			hist += 1 + next()%64
			logSize := common
			if !uniform {
				logSize = uint(4 + next()%9)
			}
			tagBits := logSize
			if b := next(); b%2 == 1 {
				tagBits = uint(4 + (b/2)%12)
			}
			specs[i] = tageSpec{HistLen: hist, LogSize: logSize, TagBits: tagBits}
		}
		branches := len(seq) / 2
		for _, avx2 := range tageStages(t) {
			matchReference(t, newTAGE("fuzz", baseLog, specs, avx2), newRefTAGE("fuzz", baseLog, specs), 4096, func(i int) (isa.Addr, bool) {
				b := seq[2*(i%branches):]
				return isa.Addr(0x400000 + 4*uint64(b[0]) + uint64(b[1]>>1)<<10), b[1]&1 == 1
			})
		}
	})
}
