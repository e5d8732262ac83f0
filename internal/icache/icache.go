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
	"fmt"
	"math/bits"
	"strconv"

	"rebalance/internal/isa"
	"rebalance/internal/lru"
	"rebalance/internal/stats"
	"rebalance/internal/wire"
)

// Cache is a set-associative instruction cache with LRU replacement, keyed
// by line address.
type Cache struct {
	lines *lru.Sets
	// used holds, per way of lines, which 8-byte sectors of its line were
	// consumed since fill, for the usefulness metric; 16 sectors cover
	// lines up to 128B.
	used []uint16

	lastLine uint64 // last line address fetched from, +1 (0 = none)
	// lastIdx indexes lastLine's way, for O(1) usage marking; ConsumeLane
	// marks through a local pointer to it. An index, not a *uint16 field:
	// a heap pointer stored on every probe pays a GC write barrier each
	// time while the collector marks.
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
// It takes the geometry as a request carries it, in 64 bits: one that
// passes fits an int on every host.
func GeometryError(sizeBytes, lineBytes, ways int64) error {
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
	if err := GeometryError(int64(sizeBytes), int64(lineBytes), int64(ways)); err != nil {
		panic(err.Error())
	}
	c := &Cache{
		lines: lru.New(sizeBytes/lineBytes/ways, ways),
		used:  make([]uint16, sizeBytes/lineBytes),
	}
	c.res = Result{SizeBytes: sizeBytes, LineBytes: lineBytes, Ways: ways}
	c.res.Name = c.res.geometryName()
	return c
}

// Reset restores the power-on state New built, in place: every way empty,
// no line being fetched from and every counter zero.
func (c *Cache) Reset() {
	c.lines.Reset()
	clear(c.used)
	c.lastLine, c.lastIdx = 0, 0
	c.res = Result{Name: c.res.Name, SizeBytes: c.res.SizeBytes, LineBytes: c.res.LineBytes, Ways: c.res.Ways}
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
	cur := &c.used[c.lastIdx]
	for i := range l.Runs {
		r := &l.Runs[i]
		lo, hi := uint64(r.Start), uint64(r.Start)+uint64(r.Bytes)
		ln := lo / lineBytes
		for base := ln * lineBytes; lo < hi; ln, base = ln+1, base+lineBytes {
			if ln+1 != c.lastLine {
				c.res.Accesses[p]++
				w, hit, evicted := c.lines.Access(ln)
				cur = &c.used[w]
				if !hit {
					c.res.Misses[p]++
					if evicted {
						c.res.retire(*cur)
					}
					*cur = 0
				}
				c.lastIdx, c.lastLine = w, ln+1
			}
			end := min(hi, base+lineBytes)
			first, last := (lo-base)/sectorBytes, (end-1-base)/sectorBytes
			*cur |= uint16(uint32(1)<<(last+1) - uint32(1)<<first)
			lo = end
		}
		if r.Taken {
			c.lastLine = 0
		}
	}
}

// retire folds the used sectors of a line leaving the cache into the
// usefulness accumulators.
func (r *Result) retire(used uint16) {
	r.TotalSectors += int64(r.LineBytes / sectorBytes)
	r.UsedSectors += int64(bits.OnesCount16(used))
}

// Result snapshots the run's counters as a mergeable, encodable record.
// Lines still resident count toward usefulness as if retired now, so the
// metric covers the whole run; the cache itself is left untouched.
func (c *Cache) Result() *Result {
	r := c.res
	for w, used := range c.used {
		if c.lines.Resident(w) {
			r.retire(used)
		}
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
	Insts    stats.Phases
	Accesses stats.Phases
	Misses   stats.Phases
	// UsedSectors and TotalSectors accumulate the usefulness metric over
	// retired lines.
	UsedSectors, TotalSectors int64
}

func (r *Result) geometryName() string {
	return fmt.Sprintf("%dKB, %dB-line, %d-way", r.SizeBytes/1024, r.LineBytes, r.Ways)
}

// MPKI returns I-cache misses per kilo-instruction over the whole stream.
func (r *Result) MPKI() float64 { return stats.PerKilo(r.Misses.Total(), r.Insts.Total()) }

// MPKISerial returns MPKI over serial sections.
func (r *Result) MPKISerial() float64 { return stats.PerKilo(r.Misses[0], r.Insts[0]) }

// MPKIParallel returns MPKI over parallel sections.
func (r *Result) MPKIParallel() float64 { return stats.PerKilo(r.Misses[1], r.Insts[1]) }

// MissRate returns misses per cache access.
func (r *Result) MissRate() float64 { return stats.Ratio(r.Misses.Total(), r.Accesses.Total()) }

// Usefulness returns the average fraction of distinct line bytes consumed
// between fill and eviction.
func (r *Result) Usefulness() float64 { return stats.Ratio(r.UsedSectors, r.TotalSectors) }

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
	r.Insts.Add(o.Insts)
	r.Accesses.Add(o.Accesses)
	r.Misses.Add(o.Misses)
	r.UsedSectors += o.UsedSectors
	r.TotalSectors += o.TotalSectors
	return nil
}

// AppendJSON appends the result's canonical JSON artifact to b: raw
// counters plus metrics derived from them, so ScanResult rebuilds a Result
// from the counters alone and re-encoding is byte-identical. Array counters
// are indexed [serial, parallel].
func (r *Result) AppendJSON(b []byte) ([]byte, error) {
	b = wire.AppendString(append(b, `{"name":`...), r.Name)
	b = strconv.AppendInt(append(b, `,"size_bytes":`...), int64(r.SizeBytes), 10)
	b = strconv.AppendInt(append(b, `,"line_bytes":`...), int64(r.LineBytes), 10)
	b = strconv.AppendInt(append(b, `,"ways":`...), int64(r.Ways), 10)
	b = wire.AppendInts(append(b, `,"insts":`...), r.Insts[:]...)
	b = wire.AppendInts(append(b, `,"accesses":`...), r.Accesses[:]...)
	b = wire.AppendInts(append(b, `,"misses":`...), r.Misses[:]...)
	b = strconv.AppendInt(append(b, `,"used_sectors":`...), r.UsedSectors, 10)
	b = strconv.AppendInt(append(b, `,"total_sectors":`...), r.TotalSectors, 10)
	b = wire.AppendFloat(append(b, `,"mpki":`...), r.MPKI())
	b = wire.AppendFloat(append(b, `,"mpki_serial":`...), r.MPKISerial())
	b = wire.AppendFloat(append(b, `,"mpki_parallel":`...), r.MPKIParallel())
	b = wire.AppendFloat(append(b, `,"miss_rate":`...), r.MissRate())
	b = wire.AppendFloat(append(b, `,"usefulness":`...), r.Usefulness())
	return append(b, '}'), nil
}

// ScanResult is the one decode path of a Result's canonical JSON artifact,
// so a coordinator can fold shards produced by a remote worker, read in
// place from the record that embeds it. Derived metrics are read as numbers
// and recomputed from the counters on re-encode.
func ScanResult(sc *wire.Scanner) (*Result, error) {
	r := &Result{}
	r.Name = sc.Open('{').Key("name").String()
	r.SizeBytes = sc.Key("size_bytes").HostInt()
	r.LineBytes = sc.Key("line_bytes").HostInt()
	r.Ways = sc.Key("ways").HostInt()
	sc.Key("insts").Ints(r.Insts[:]).Key("accesses").Ints(r.Accesses[:]).Key("misses").Ints(r.Misses[:])
	r.UsedSectors = sc.Key("used_sectors").Int()
	r.TotalSectors = sc.Key("total_sectors").Int()
	sc.SkipKeys("mpki", "mpki_serial", "mpki_parallel", "miss_rate", "usefulness")
	return wire.Scanned(sc.Close('}'), r)
}
