// Package icache implements the L1 instruction cache simulator of Section
// IV-C: a set-associative cache with LRU replacement and parametric size,
// line width, and associativity, exactly as the paper's pintool "creates a
// cache structure with the specified characteristics such as cache size,
// line width, and associativity" and implements LRU.
//
// Accesses follow the fetch model the paper describes: once a line is
// fetched, instructions are extracted sequentially without re-accessing the
// cache until the end of the line or a taken branch — so the simulator
// probes the cache only when fetch crosses into a new line, either
// sequentially or through a taken branch. The package also measures line
// "usefulness": the fraction of distinct bytes of a line actually consumed
// between fill and eviction (the paper reports 71% for HPC at 128B lines
// versus 33% for SPEC CPU INT).
//
// Between two redirects fetch is a contiguous byte range, so the simulator
// consumes fetch runs (trace.LaneConsumer) and walks each run's lines; on
// every accepted geometry the counters are bit-identical to modelling the
// run one instruction at a time. Lines narrower than 16 bytes are refused:
// a 15-byte instruction could span three of them, which the two-line
// straddle of the per-instruction model never described.
package icache

import (
	"encoding/json"
	"fmt"
	"math/bits"

	"rebalance/internal/isa"
	"rebalance/internal/wire"
)

// line is one way: its tag, the probe clock at its last use (0 while the
// way is empty; 64-bit, so it never wraps and a recent stamp is never the
// least) and its consumed sectors.
type line struct {
	tag uint64
	lru uint64
	// used tracks which 8-byte sectors of the line were consumed since
	// fill, for the usefulness metric; 16 sectors cover lines up to 128B.
	used uint16
}

// Cache is a set-associative instruction cache with LRU replacement.
type Cache struct {
	sets  int
	lines []line
	clock uint64

	lastLine uint64 // last line address fetched from, +1 (0 = none)
	// lastIdx indexes lastLine's resident entry in lines, for O(1) usage
	// marking; ConsumeLane marks through a local pointer to it. An index,
	// not a *line field: a heap pointer stored on every probe pays a GC
	// write barrier each time while the collector marks.
	lastIdx int

	// res accumulates the run's counters; Result() snapshots it.
	res Result
}

// sectorBytes is the granularity of usefulness tracking.
const sectorBytes = 8

// maxInstBytes is the longest instruction of the stream model (isa.Inst.Size
// is 1..15, as on x86).
const maxInstBytes = 15

// MaxSizeBytes bounds a cache's size: over 1000x the paper's largest, and
// small enough that a geometry taken from a request cannot exhaust memory.
const MaxSizeBytes = 64 << 20

// GeometryError reports why a geometry is invalid, or nil if it is usable.
func GeometryError(sizeBytes, lineBytes, ways int) error {
	if sizeBytes <= 0 || lineBytes <= 0 || ways <= 0 || sizeBytes > MaxSizeBytes {
		return fmt.Errorf("icache: invalid geometry size=%d line=%d ways=%d (at most %d bytes)", sizeBytes, lineBytes, ways, MaxSizeBytes)
	}
	if lineBytes%sectorBytes != 0 || lineBytes > 16*sectorBytes {
		return fmt.Errorf("icache: line width %dB unsupported", lineBytes)
	}
	if lineBytes <= maxInstBytes {
		return fmt.Errorf("icache: line width %dB unsupported: an instruction is up to %d bytes and may span at most two lines", lineBytes, maxInstBytes)
	}
	if sizeBytes%lineBytes != 0 {
		return fmt.Errorf("icache: size %dB is not a whole number of %dB lines", sizeBytes, lineBytes)
	}
	if (sizeBytes/lineBytes)%ways != 0 {
		return fmt.Errorf("icache: size %dB / line %dB not divisible into %d ways", sizeBytes, lineBytes, ways)
	}
	return nil
}

// New returns a cache of sizeBytes with the given line width and
// associativity. Panics on inconsistent geometry, which is a programming
// error in experiment setup.
func New(sizeBytes, lineBytes, ways int) *Cache {
	if err := GeometryError(sizeBytes, lineBytes, ways); err != nil {
		panic(err.Error())
	}
	c := &Cache{
		sets:  sizeBytes / lineBytes / ways,
		lines: make([]line, sizeBytes/lineBytes),
	}
	c.res = Result{SizeBytes: sizeBytes, LineBytes: lineBytes, Ways: ways}
	c.res.Name = c.res.geometryName()
	return c
}

// ConsumeLane implements trace.LaneConsumer. A run is a contiguous byte
// range, so fetch walks its lines in order: a line is probed when it is not
// the one fetch is already extracting from, and the sectors the range covers
// in it are marked consumed. A run that ends in a taken branch redirects
// fetch: the next run probes the cache even if the target happens to land in
// the same line. This is the per-instruction fetch model — probe on a new
// line, probe the second line of a straddling instruction — with the line
// and sector arithmetic paid per line instead of per instruction.
func (c *Cache) ConsumeLane(l *isa.Lane) {
	p := l.Phase
	c.res.Insts[p] += int64(l.Insts)
	lineBytes := uint64(c.res.LineBytes)
	cur := &c.lines[c.lastIdx]
	for i := range l.Runs {
		r := &l.Runs[i]
		lo, hi := uint64(r.Start), uint64(r.Start)+uint64(r.Bytes)
		ln := lo / lineBytes
		for base := ln * lineBytes; lo < hi; ln, base = ln+1, base+lineBytes {
			if ln+1 != c.lastLine {
				c.lastIdx = c.access(ln, p)
				c.lastLine = ln + 1
				cur = &c.lines[c.lastIdx]
			}
			end := min(hi, base+lineBytes)
			first, last := (lo-base)/sectorBytes, (end-1-base)/sectorBytes
			cur.used |= uint16(uint32(1)<<(last+1) - uint32(1)<<first)
			lo = end
		}
		if r.Taken {
			c.lastLine = 0
		}
	}
}

// access looks up a line address, updating LRU and miss counters, and
// returns the index of the resident entry (after fill on a miss).
func (c *Cache) access(lineAddr uint64, phase int) int {
	c.res.Accesses[phase]++
	c.clock++
	ways := c.res.Ways
	set := int(lineAddr % uint64(c.sets))
	tag := lineAddr / uint64(c.sets)
	base := set * ways
	for w := 0; w < ways; w++ {
		l := &c.lines[base+w]
		if l.lru != 0 && l.tag == tag {
			l.lru = c.clock
			return base + w
		}
	}
	c.res.Misses[phase]++
	// The least stamp is the LRU way, or the first empty one.
	victim := base
	for w := 1; w < ways; w++ {
		if c.lines[base+w].lru < c.lines[victim].lru {
			victim = base + w
		}
	}
	c.res.retire(&c.lines[victim])
	c.lines[victim] = line{tag: tag, lru: c.clock}
	return victim
}

// retire folds a line's usage since fill into the usefulness accumulators.
func (r *Result) retire(l *line) {
	if l.lru == 0 {
		return
	}
	r.TotalSectors += int64(r.LineBytes / sectorBytes)
	r.UsedSectors += int64(bits.OnesCount16(l.used))
}

// Result snapshots the run's counters as a mergeable, encodable record.
// Lines still resident count toward usefulness as if retired now, so the
// metric covers the whole run; the cache itself is left untouched.
func (c *Cache) Result() *Result {
	r := c.res
	for i := range c.lines {
		r.retire(&c.lines[i])
	}
	return &r
}

// Result holds one cache configuration's counters over a stream. It merges
// across shards of the same geometry and encodes as the canonical JSON
// artifact.
type Result struct {
	// Name is the legend name of the geometry.
	Name string
	// SizeBytes, LineBytes, and Ways are the geometry.
	SizeBytes, LineBytes, Ways int
	// Insts, Accesses, and Misses count per phase (0 serial, 1 parallel).
	Insts    [2]int64
	Accesses [2]int64
	Misses   [2]int64
	// UsedSectors and TotalSectors accumulate the usefulness metric over
	// retired lines.
	UsedSectors, TotalSectors int64
}

func (r *Result) geometryName() string {
	return fmt.Sprintf("%dKB, %dB-line, %d-way", r.SizeBytes/1024, r.LineBytes, r.Ways)
}

// MPKI returns I-cache misses per kilo-instruction over the whole stream.
func (r *Result) MPKI() float64 { return r.mpki(0, 1) }

// MPKISerial returns MPKI over serial sections.
func (r *Result) MPKISerial() float64 { return r.mpki(0) }

// MPKIParallel returns MPKI over parallel sections.
func (r *Result) MPKIParallel() float64 { return r.mpki(1) }

func (r *Result) mpki(phases ...int) float64 {
	var insts, miss int64
	for _, p := range phases {
		insts += r.Insts[p]
		miss += r.Misses[p]
	}
	if insts == 0 {
		return 0
	}
	return 1000 * float64(miss) / float64(insts)
}

// MissRate returns misses per cache access.
func (r *Result) MissRate() float64 {
	a := r.Accesses[0] + r.Accesses[1]
	if a == 0 {
		return 0
	}
	return float64(r.Misses[0]+r.Misses[1]) / float64(a)
}

// Usefulness returns the average fraction of distinct line bytes consumed
// between fill and eviction.
func (r *Result) Usefulness() float64 {
	if r.TotalSectors == 0 {
		return 0
	}
	return float64(r.UsedSectors) / float64(r.TotalSectors)
}

// Merge folds another *Result's counters into r. A zero receiver adopts
// the other's geometry; otherwise the geometries must match.
func (r *Result) Merge(other any) error {
	o, ok := other.(*Result)
	if !ok {
		return fmt.Errorf("icache: cannot merge %T into *icache.Result", other)
	}
	if r.SizeBytes == 0 {
		r.Name, r.SizeBytes, r.LineBytes, r.Ways = o.Name, o.SizeBytes, o.LineBytes, o.Ways
	} else if o.SizeBytes != 0 && (o.SizeBytes != r.SizeBytes || o.LineBytes != r.LineBytes || o.Ways != r.Ways) {
		return fmt.Errorf("icache: cannot merge %q into %q", o.Name, r.Name)
	}
	for p := 0; p < 2; p++ {
		r.Insts[p] += o.Insts[p]
		r.Accesses[p] += o.Accesses[p]
		r.Misses[p] += o.Misses[p]
	}
	r.UsedSectors += o.UsedSectors
	r.TotalSectors += o.TotalSectors
	return nil
}

// resultWire is the canonical JSON shape: raw counters plus metrics
// derived from them, so NewTarget rebuilds a Result from the counters
// alone and re-encoding is byte-identical.
type resultWire struct {
	Name         string   `json:"name"`
	SizeBytes    int      `json:"size_bytes"`
	LineBytes    int      `json:"line_bytes"`
	Ways         int      `json:"ways"`
	Insts        [2]int64 `json:"insts"`
	Accesses     [2]int64 `json:"accesses"`
	Misses       [2]int64 `json:"misses"`
	UsedSectors  int64    `json:"used_sectors"`
	TotalSectors int64    `json:"total_sectors"`
	MPKI         float64  `json:"mpki"`
	MPKISerial   float64  `json:"mpki_serial"`
	MPKIParallel float64  `json:"mpki_parallel"`
	MissRate     float64  `json:"miss_rate"`
	Usefulness   float64  `json:"usefulness"`
}

// EncodeJSON renders the result as its canonical JSON artifact. Array
// counters are indexed [serial, parallel].
func (r *Result) EncodeJSON() ([]byte, error) {
	return json.Marshal(resultWire{
		Name: r.Name, SizeBytes: r.SizeBytes, LineBytes: r.LineBytes, Ways: r.Ways,
		Insts: r.Insts, Accesses: r.Accesses, Misses: r.Misses,
		UsedSectors: r.UsedSectors, TotalSectors: r.TotalSectors,
		MPKI: r.MPKI(), MPKISerial: r.MPKISerial(), MPKIParallel: r.MPKIParallel(),
		MissRate: r.MissRate(), Usefulness: r.Usefulness(),
	})
}

// NewTarget is the one decode path of a Result's canonical JSON artifact,
// so a coordinator can fold shards produced by a remote worker, as a
// wire.Target: a document that embeds the artifact (a shard record) parses
// it in the same pass as itself, and wire.Decode parses it alone. Derived
// metrics are recomputed from the counters.
func NewTarget() (ptr any, build func() (*Result, error)) {
	return wire.Target(func(w *resultWire) (*Result, error) {
		return &Result{
			Name: w.Name, SizeBytes: w.SizeBytes, LineBytes: w.LineBytes, Ways: w.Ways,
			Insts: w.Insts, Accesses: w.Accesses, Misses: w.Misses,
			UsedSectors: w.UsedSectors, TotalSectors: w.TotalSectors,
		}, nil
	})
}
