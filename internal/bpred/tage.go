package bpred

import (
	"fmt"
	"math/bits"

	"rebalance/internal/isa"
)

// TAGE is the TAgged GEometric-history-length predictor (Seznec & Michaud):
// a bimodal base predictor plus a set of partially tagged tables indexed
// with hashes of geometrically increasing global-history lengths. The
// longest-history matching table provides the prediction; tags eliminate
// the destructive aliasing that plagues gshare-style tables, which is
// exactly the property the paper highlights in Section IV-A.
//
// Per Table II / the L-TAGE paper, the "big" (~16KB) configuration uses 12
// tagged tables and the "small" (~2KB) configuration uses 2 tables with
// history lengths 4 and 16 and roughly 3x fewer entries per table.
type TAGE struct {
	name string
	geom string // the constructor's base size and table specs

	base   *Bimodal
	tables []tageTable

	// k is the per-table stage's state: every table's folded histories and
	// hash constants, and the index and tag the last access computed (see
	// tageKernel). avx2 selects the stage that runs it, once, in newTAGE.
	k    tageKernel
	avx2 bool

	// tags is every table's tags in one slab, table after table, padded by
	// one entry; each tageTable.tag is its table's sub-slice.
	tags []uint16

	// Global history as a circular bit buffer; long enough for the longest
	// geometric history length. The length is a power of two so position
	// arithmetic is a mask instead of a modulo (negative positions wrap
	// through it). The buffer is padded by 3 bytes past ghistMask, so a
	// dword read at any position stays inside it.
	//
	// Between accesses the tables' folded histories lag ghist by its most
	// recent bit: the stage folds that bit in right before it hashes each
	// table's index, so an access runs each table once. (At power-on
	// ghist and every fold are zero, and folding in a zero bit while a zero
	// bit leaves keeps a zero fold zero.)
	ghist     []uint8
	ghistMask uint32
	ghistPos  uint32 // position of the most recent bit

	// pathHist folds low PC bits of recent branches into index hashes; an
	// index reads at most its low 16 bits.
	pathHist uint32

	// useAltOnNA biases toward the alternate prediction when the provider
	// entry is newly allocated (weak); 4-bit signed counter.
	useAltOnNA int

	// lfsr drives the allocation tie-break, deterministic across runs.
	lfsr uint32

	// accesses triggers the periodic useful-bit aging.
	accesses uint64
}

// tageTable is one tagged table's entries; its geometry and folded histories
// are its lane of TAGE.k.
type tageTable struct {
	tag    []uint16
	ctr    []int8  // 3-bit signed, taken when >= 0
	useful []uint8 // 2-bit
}

// tageLanes is the most tables a TAGE has: one lane of tageKernel each.
const tageLanes = 16

// tageKernel is the per-table stage of a TAGE access as data, one 32-bit lane
// per table (lanes past the table count stay zero), so that one loop or two
// 8-lane AVX2 vectors run every table. Each table keeps three of Seznec's
// folded histories: fold 0 to its index width, folds 1 and 2 to its tag
// width and one bit less.
//
// 32-bit lanes are exact for any 64-bit PC and path: index bits below
// logSize read PC bits (after the alignment shift) only below 2*logSize-2 <=
// 30 and path bits below logSize; tag bits read PC bits below tagBits <= 16;
// a fold holds at most 16 bits. NewTAGE enforces the bounds.
type tageKernel struct {
	fold  [3][tageLanes]uint32
	outPt [3][tageLanes]uint32 // histLen % the fold's width
	width [3][tageLanes]uint32 // index width, tag width, tag width - 1
	fmask [3][tageLanes]uint32 // 1<<width - 1

	histLen [tageLanes]uint32
	shift   [tageLanes]uint32 // logSize - 2, the PC's second index term
	idxMask [tageLanes]uint32
	tagMask [tageLanes]uint32
	tagOff  [tageLanes]uint32 // the table's first entry in TAGE.tags

	// What the last access computed: each table's index and tag.
	idx [tageLanes]uint32
	tag [tageLanes]uint32
}

// tageStage is the per-table stage in Go, and the AVX2 kernel's spec: for
// each of the first n lanes, fold in newBit (ghist at pos) and the bit leaving
// the table's history, hash the index and tag of p (the PC's index bits) and
// path, and set hit bit i where table i's stored tag matches. It makes two
// passes, folds then hashes: one pass spilled its state per table. Where a
// tag is as wide as its index (tage-small's tables, six of tage-big's), fold 1
// is fold 0 by construction and is copied.
func tageStage(k *tageKernel, ghist []uint8, tags []uint16, p, path, newBit, pos, mask uint32, n int) (hits uint32) {
	for i := range k.histLen[:n] {
		old := uint32(ghist[(pos-k.histLen[i])&mask])
		f0 := foldIn(k.fold[0][i], newBit, old, k.outPt[0][i], k.width[0][i], k.fmask[0][i])
		f1 := f0
		if k.width[1][i] != k.width[0][i] {
			f1 = foldIn(k.fold[1][i], newBit, old, k.outPt[1][i], k.width[1][i], k.fmask[1][i])
		}
		k.fold[0][i], k.fold[1][i] = f0, f1
		k.fold[2][i] = foldIn(k.fold[2][i], newBit, old, k.outPt[2][i], k.width[2][i], k.fmask[2][i])
	}
	pp := p ^ path
	for i := range k.histLen[:n] {
		idx := (pp ^ p>>(k.shift[i]&31) ^ k.fold[0][i]) & k.idxMask[i]
		tag := (p ^ k.fold[1][i] ^ k.fold[2][i]<<1) & k.tagMask[i]
		k.idx[i], k.tag[i] = idx, tag
		hits |= uint32(b2u(uint32(tags[k.tagOff[i]+idx]) == tag)) << i
	}
	return hits
}

// foldIn shifts newBit into the fold f and old, the bit leaving its history,
// out. Both shift counts are below 32; masking them says so to the compiler,
// which then emits a bare shift.
func foldIn(f, newBit, old, outPt, width, mask uint32) uint32 {
	c := f<<1 | newBit
	c ^= old << (outPt & 31)
	c ^= c >> (width & 31)
	return c & mask
}

// tageSpec describes one tagged table.
type tageSpec struct {
	HistLen int
	LogSize uint
	TagBits uint
}

// NewTAGE builds a TAGE predictor from explicit table specs and a bimodal
// base of 2^baseLog entries. Specs must be ordered by increasing history
// length; there are at most 16, of 2^2 to 2^16 entries and 2- to 16-bit tags.
// It runs the AVX2 stage where the CPU has AVX2 and there are over 8 tables
// (on fewer its fixed cost exceeds what it saves), the Go stage otherwise.
func NewTAGE(name string, baseLog uint, specs []tageSpec) *TAGE {
	return newTAGE(name, baseLog, specs, haveAVX2 && len(specs) > tageLanes/2)
}

// newTAGE is NewTAGE with the stage chosen by the caller: the AVX2 kernel
// (which needs haveAVX2) or the Go stage.
func newTAGE(name string, baseLog uint, specs []tageSpec, avx2 bool) *TAGE {
	t := &TAGE{
		name: name,
		geom: fmt.Sprint("tage/", baseLog, specs),
		base: NewBimodal(name+"-base", baseLog),
		avx2: avx2,
		lfsr: 0xACE1,
	}
	if len(specs) > tageLanes {
		panic(fmt.Sprintf("bpred: TAGE has at most %d tables, got %d", tageLanes, len(specs)))
	}
	entries := 1 // the slab's padding
	for i, s := range specs {
		if s.HistLen <= 0 || (i > 0 && s.HistLen <= specs[i-1].HistLen) {
			panic(fmt.Sprintf("bpred: TAGE specs must have increasing history lengths, got %v", specs))
		}
		if s.LogSize < 2 || s.LogSize > 16 || s.TagBits < 2 || s.TagBits > 16 {
			panic(fmt.Sprintf("bpred: TAGE table %+v: LogSize and TagBits must be 2..16", s))
		}
		entries += 1 << s.LogSize
	}
	t.tags = make([]uint16, entries)
	k, off, maxHist := &t.k, 0, 0
	for i, s := range specs {
		size := 1 << s.LogSize
		t.tables = append(t.tables, tageTable{
			tag:    t.tags[off : off+size : off+size],
			ctr:    make([]int8, size),
			useful: make([]uint8, size),
		})
		for j, w := range [3]uint32{uint32(s.LogSize), uint32(s.TagBits), uint32(s.TagBits - 1)} {
			k.outPt[j][i], k.width[j][i], k.fmask[j][i] = uint32(s.HistLen)%w, w, 1<<w-1
		}
		k.histLen[i], k.shift[i] = uint32(s.HistLen), uint32(s.LogSize-2)
		k.idxMask[i], k.tagMask[i], k.tagOff[i] = 1<<s.LogSize-1, 1<<s.TagBits-1, uint32(off)
		off += size
		maxHist = max(maxHist, s.HistLen)
	}
	ghistLen := 1
	for ghistLen < maxHist+1 {
		ghistLen <<= 1
	}
	t.ghist = make([]uint8, ghistLen+3)
	t.ghistMask = uint32(ghistLen - 1)
	return t
}

// NewTAGESmall returns the paper's ~2KB configuration: two tagged tables
// with history lengths 4 and 16 (Table II, footnote 2).
func NewTAGESmall() *TAGE {
	return NewTAGE("tage-small", 12, []tageSpec{
		{HistLen: 4, LogSize: 8, TagBits: 8},
		{HistLen: 16, LogSize: 8, TagBits: 8},
	})
}

// NewTAGEBig returns the paper's ~16KB configuration: 12 tagged tables with
// geometric history lengths from 4 to 640, half the entries of the 32KB
// championship configuration (Table II, footnote 2).
func NewTAGEBig() *TAGE {
	// Geometric series L(i) = 4 * (640/4)^((i-1)/11), rounded.
	hist := []int{4, 6, 10, 16, 25, 40, 64, 101, 160, 254, 403, 640}
	specs := make([]tageSpec, len(hist))
	for i, h := range hist {
		tag := uint(9)
		if i >= 6 {
			tag = 11
		}
		specs[i] = tageSpec{HistLen: h, LogSize: 9, TagBits: tag}
	}
	return NewTAGE("tage-big", 13, specs)
}

func (t *TAGE) rand() uint32 {
	// 16-bit Galois LFSR: deterministic, cheap, good enough for the
	// allocation tie-break.
	lsb := t.lfsr & 1
	t.lfsr >>= 1
	if lsb != 0 {
		t.lfsr ^= 0xB400
	}
	return t.lfsr
}

// Access implements Predictor.
func (t *TAGE) Access(pc isa.Addr, taken bool) bool {
	t.accesses++

	// Catch each table's folded histories up with the last outcome, compute
	// its index and tag, and note whether it hits; the provider is the
	// longest-history hit and the alternate the next longest. The index and
	// tag hashes read the PC's low 32 bits (see tageKernel).
	k, p, pos := &t.k, uint32(pcIndexBits(pc)), t.ghistPos
	var hits uint32
	if t.avx2 {
		hits = tageStageAVX2(k, t.ghist, t.tags, p, t.pathHist, uint32(t.ghist[pos]), pos, t.ghistMask, len(t.tables))
	} else {
		hits = tageStage(k, t.ghist, t.tags, p, t.pathHist, uint32(t.ghist[pos]), pos, t.ghistMask, len(t.tables))
	}
	provider, altProvider := -1, -1
	var provIdx, altIdx uint32
	if hits != 0 {
		provider = bits.Len32(hits) - 1
		provIdx = k.idx[provider]
		if rest := hits &^ (1 << provider); rest != 0 {
			altProvider = bits.Len32(rest) - 1
			altIdx = k.idx[altProvider]
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

	// --- Update ---
	correct := pred == taken
	if provider >= 0 {
		tb := &t.tables[provider]
		provPred := tb.ctr[provIdx] >= 0
		if providerWeak && provPred != altPred {
			// Track whether the alternate beats newly allocated entries.
			if altPred == taken {
				if t.useAltOnNA < 7 {
					t.useAltOnNA++
				}
			} else if t.useAltOnNA > -8 {
				t.useAltOnNA--
			}
		}
		// Useful bit: moves toward whether the provider was right, where it
		// differed from the alternate — always computed, stored under that mask.
		u := tb.useful[provIdx]
		tb.useful[provIdx] = u ^ (u^ctrUpdate(u, provPred == taken))&-uint8(b2u(provPred != altPred))
		// Train the provider counter.
		tb.ctr[provIdx] = ctr3Update(tb.ctr[provIdx], taken)
		// Also train the alternate when the provider entry is still weak.
		if providerWeak {
			if altProvider >= 0 {
				atb := &t.tables[altProvider]
				atb.ctr[altIdx] = ctr3Update(atb.ctr[altIdx], taken)
			} else {
				t.base.update(pc, taken)
			}
		}
	} else {
		t.base.update(pc, taken)
	}

	// Allocate a longer-history entry on misprediction.
	if !correct && provider < len(t.tables)-1 {
		start := provider + 1
		// Seznec's tie-break: sometimes skip the first candidate so
		// allocations spread across history lengths.
		if start < len(t.tables)-1 && t.rand()&1 == 0 {
			start++
		}
		allocated := false
		for i := start; i < len(t.tables); i++ {
			tb, idx := &t.tables[i], k.idx[i]
			if tb.useful[idx] == 0 {
				tb.tag[idx] = uint16(k.tag[i])
				tb.ctr[idx] = int8(b2u(taken)) - 1 // weak toward the outcome
				tb.useful[idx] = 0
				allocated = true
				break
			}
		}
		if !allocated {
			// All candidates useful: age them so future allocations can
			// succeed.
			for i := provider + 1; i < len(t.tables); i++ {
				u := t.tables[i].useful
				u[k.idx[i]] = ctrUpdate(u[k.idx[i]], false)
			}
		}
	}

	// Periodic aging of useful bits.
	if t.accesses&(1<<18-1) == 0 {
		for i := range t.tables {
			u := t.tables[i].useful
			for j := range u {
				u[j] >>= 1
			}
		}
	}

	// Advance the global and path histories; the folds follow on the next
	// access.
	t.ghistPos = (t.ghistPos + 1) & t.ghistMask
	t.ghist[t.ghistPos] = uint8(b2u(taken))
	t.pathHist = t.pathHist<<1 | uint32(pc)>>2&1

	return pred
}

// ctr3Next is the 3-bit counter's transition table, indexed by (state+4) |
// taken<<3 (see ctrUpdate for why it is a table).
var ctr3Next = [16]int8{-4, -4, -3, -2, -1, 0, 1, 2, -3, -2, -1, 0, 1, 2, 3, 3}

// ctr3Update moves a 3-bit signed counter (-4..3) toward the outcome.
func ctr3Update(c int8, taken bool) int8 {
	return ctr3Next[(uint8(c+4)|uint8(b2u(taken))<<3)&15]
}

// Name implements Predictor.
func (t *TAGE) Name() string { return t.name }

// CostBits implements Predictor: tagged entries cost tag + 3-bit counter +
// 2-bit useful; the base costs 2 bits per entry.
func (t *TAGE) CostBits() int {
	bits := t.base.CostBits()
	for i := range t.tables {
		bits += len(t.tables[i].tag) * (int(t.k.width[1][i]) + 3 + 2)
	}
	return bits
}

// geometry names everything that shapes a TAGE's state (see NewSim); the
// LFSR seed is a constant.
func (t *TAGE) geometry() string { return t.geom }
