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

	// uniform is set when every table has the same logSize (both built-in
	// configurations): the address and path part of an index is then the
	// same for all tables and is computed once per access.
	uniform bool

	// Global history as a circular bit buffer; long enough for the longest
	// geometric history length. The length is a power of two so position
	// arithmetic is a mask instead of a modulo (negative positions wrap
	// through it) — a bit is read per table per access, and integer division
	// dominated the profile before.
	//
	// Between accesses the tables' folded histories lag ghist by its most
	// recent bit: Access folds that bit in on the same walk over the tables
	// that hashes their indices, so an access visits each table once. (At
	// power-on ghist and every fold are zero, and folding in a zero bit while
	// a zero bit leaves keeps a zero fold zero.)
	ghist     []uint8
	ghistMask int
	ghistPos  int // position of the most recent bit

	// pathHist folds low PC bits of recent branches into index hashes.
	pathHist uint64

	// useAltOnNA biases toward the alternate prediction when the provider
	// entry is newly allocated (weak); 4-bit signed counter.
	useAltOnNA int

	// lfsr drives the allocation tie-break, deterministic across runs.
	lfsr uint32

	// accesses triggers the periodic useful-bit aging.
	accesses uint64

	// Per-access scratch, preallocated to keep Access allocation-free.
	scratchIdx []uint64
	scratchTag []uint16
}

// tageTable is one tagged table. The tables are held by value in one slice,
// so the per-access walk over them follows no pointers.
type tageTable struct {
	histLen int
	logSize uint
	tagBits uint
	idxMask uint64 // 1<<logSize - 1
	tagMask uint64 // 1<<tagBits - 1
	tag     []uint16
	ctr     []int8  // 3-bit signed, taken when >= 0
	useful  []uint8 // 2-bit
	// The folded histories update on every access. foldTag1 folds the same
	// history to tagBits bits as foldIdx does to logSize bits, so where the
	// two widths are equal the registers start equal and stay equal:
	// sharedFold then keeps only foldIdx, and foldTag1 is unused.
	sharedFold bool
	foldIdx    folded
	foldTag1   folded
	foldTag2   folded
}

// folded maintains an incrementally folded (compressed) copy of the global
// history, as in Seznec's reference implementation. The struct is kept to
// one-and-a-half words of hot state with precomputed mask and shift so the
// updates per table per access stay a handful of ALU ops each.
type folded struct {
	comp    uint64
	mask    uint64 // (1 << compLen) - 1
	compLen uint8
	outPt   uint8
}

func newFolded(histLen int, compLen uint) folded {
	return folded{
		mask:    uint64(1)<<compLen - 1,
		compLen: uint8(compLen),
		outPt:   uint8(uint(histLen) % compLen),
	}
}

// update shifts newBit in and oldBit, the bit leaving the history, out. Both
// shift counts are below 64; masking them says so to the compiler, which then
// emits a bare shift.
func (f *folded) update(newBit, oldBit uint64) {
	c := (f.comp << 1) | newBit
	c ^= oldBit << (f.outPt & 63)
	c ^= c >> (f.compLen & 63)
	f.comp = c & f.mask
}

// tageSpec describes one tagged table.
type tageSpec struct {
	HistLen int
	LogSize uint
	TagBits uint
}

// NewTAGE builds a TAGE predictor from explicit table specs and a bimodal
// base of 2^baseLog entries. Specs must be ordered by increasing history
// length.
func NewTAGE(name string, baseLog uint, specs []tageSpec) *TAGE {
	t := &TAGE{
		name:    name,
		geom:    fmt.Sprint("tage/", baseLog, specs),
		base:    NewBimodal(name+"-base", baseLog),
		uniform: len(specs) > 0,
		lfsr:    0xACE1,
	}
	if len(specs) > 64 { // Access keeps one hit bit per table in a uint64
		panic(fmt.Sprintf("bpred: TAGE has at most 64 tables, got %d", len(specs)))
	}
	maxHist := 0
	for i, s := range specs {
		if s.HistLen <= 0 || (i > 0 && s.HistLen <= specs[i-1].HistLen) {
			panic(fmt.Sprintf("bpred: TAGE specs must have increasing history lengths, got %v", specs))
		}
		t.tables = append(t.tables, tageTable{
			histLen:    s.HistLen,
			logSize:    s.LogSize,
			tagBits:    s.TagBits,
			idxMask:    uint64(1)<<s.LogSize - 1,
			tagMask:    uint64(1)<<s.TagBits - 1,
			tag:        make([]uint16, 1<<s.LogSize),
			ctr:        make([]int8, 1<<s.LogSize),
			useful:     make([]uint8, 1<<s.LogSize),
			sharedFold: s.TagBits == s.LogSize,
			foldIdx:    newFolded(s.HistLen, s.LogSize),
			foldTag1:   newFolded(s.HistLen, s.TagBits),
			foldTag2:   newFolded(s.HistLen, s.TagBits-1),
		})
		t.uniform = t.uniform && s.LogSize == specs[0].LogSize
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

// mix is the address and path part of the table's index hash; the index is
// mix ^ foldIdx.comp, which is already below 1<<logSize.
func (tb *tageTable) mix(p, path uint64) uint64 {
	return (p ^ p>>(tb.logSize-2) ^ path) & tb.idxMask
}

func (tb *tageTable) tagOf(p uint64) uint16 {
	t1 := tb.foldTag1.comp
	if tb.sharedFold {
		t1 = tb.foldIdx.comp
	}
	return uint16((p ^ t1 ^ tb.foldTag2.comp<<1) & tb.tagMask)
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
	// longest-history hit and the alternate the next longest. The loop reads
	// the predictor's fields through locals: its stores to the folds would
	// otherwise force a reload of each field per table.
	tables, uniform, path := t.tables, t.uniform, t.pathHist
	idxs, tags := t.scratchIdx[:len(tables)], t.scratchTag[:len(tables)]
	ghist, ghistMask, ghistPos := t.ghist, t.ghistMask, t.ghistPos
	p := pcIndexBits(pc)
	newBit := uint64(ghist[ghistPos])
	var mix, hits uint64
	if uniform {
		mix = tables[0].mix(p, path)
	}
	for i := range tables {
		tb := &tables[i]
		old := uint64(ghist[(ghistPos-tb.histLen)&ghistMask]) // the bit leaving the table's history
		tb.foldIdx.update(newBit, old)
		if !tb.sharedFold {
			tb.foldTag1.update(newBit, old)
		}
		tb.foldTag2.update(newBit, old)
		if !uniform {
			mix = tb.mix(p, path)
		}
		idx, tag := mix^tb.foldIdx.comp, tb.tagOf(p)
		idxs[i], tags[i] = idx, tag
		hits |= b2u(tb.tag[idx] == tag) << (i & 63)
	}
	provider, altProvider := -1, -1
	var provIdx, altIdx uint64
	if hits != 0 {
		provider = bits.Len64(hits) - 1
		provIdx = idxs[provider]
		if rest := hits &^ (1 << provider); rest != 0 {
			altProvider = bits.Len64(rest) - 1
			altIdx = idxs[altProvider]
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
			tb := &t.tables[i]
			if tb.useful[idxs[i]] == 0 {
				tb.tag[idxs[i]] = tags[i]
				tb.ctr[idxs[i]] = int8(b2u(taken)) - 1 // weak toward the outcome
				tb.useful[idxs[i]] = 0
				allocated = true
				break
			}
		}
		if !allocated {
			// All candidates useful: age them so future allocations can
			// succeed.
			for i := provider + 1; i < len(t.tables); i++ {
				u := t.tables[i].useful
				u[idxs[i]] = ctrUpdate(u[idxs[i]], false)
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
	t.pathHist = (t.pathHist << 1) | (uint64(pc) >> 2 & 1)

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
		bits += len(t.tables[i].tag) * (int(t.tables[i].tagBits) + 3 + 2)
	}
	return bits
}

// geometry names everything that shapes a TAGE's state (see NewSim); the
// LFSR seed is a constant.
func (t *TAGE) geometry() string { return t.geom }
