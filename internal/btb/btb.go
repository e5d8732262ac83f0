// Package btb implements the branch target buffer simulator of Section IV-B:
// a set-associative cache, indexed by branch address with simple modulo
// indexing (the paper points to this as the source of aliasing that makes
// high associativity matter for ExMatEx). A BTB miss is a taken branch
// whose entry is absent at fetch, so an entry records only which branch
// holds it: the target a real BTB stores never decides a hit or a miss.
//
// Following the paper, only branches resolved taken are allocated: not-taken
// branches continue fetching from the next sequential instruction and need
// no entry. The simulator therefore consumes fetch runs (trace.LaneConsumer),
// not instructions: it acts on the runs that end in a taken branch and only
// counts the rest.
package btb

import (
	"fmt"
	"strconv"

	"rebalance/internal/isa"
	"rebalance/internal/lru"
	"rebalance/internal/stats"
	"rebalance/internal/wire"
)

// BTB is a set-associative branch target buffer with true-LRU replacement.
// An entry is keyed by its branch address without the two alignment bits,
// whose set is the key modulo the set count (the paper's "simple modulo
// indexing"); the whole key is the tag, so aliased hits cannot occur, as in
// a real BTB with complete tags.
type BTB struct {
	entries *lru.Sets

	// res accumulates the run's counters; Result() snapshots it.
	res Result
}

// MaxEntries bounds a BTB's size: over 1000x the paper's largest, and small
// enough that a geometry taken from a request cannot exhaust memory.
const MaxEntries = 1 << 20

// GeometryError reports why a geometry is invalid, or nil if it is usable.
// It takes the geometry as a request carries it, in 64 bits: one that
// passes fits an int on every host.
func GeometryError(entries, ways int64) error {
	if entries <= 0 || ways <= 0 || entries%ways != 0 || entries > MaxEntries {
		return fmt.Errorf("btb: invalid geometry %d entries, %d ways (at most %d entries)", entries, ways, MaxEntries)
	}
	return nil
}

// New returns a BTB with the given total entries and associativity.
// Entries must be divisible by ways.
func New(entries, ways int) *BTB {
	if err := GeometryError(int64(entries), int64(ways)); err != nil {
		panic(err.Error())
	}
	b := &BTB{
		entries: lru.New(entries/ways, ways),
	}
	b.res = Result{Entries: entries, Ways: ways}
	b.res.Name = b.res.geometryName()
	return b
}

// Reset restores the power-on state New built, in place: every way empty
// and every counter zero.
func (b *BTB) Reset() {
	b.entries.Reset()
	b.res = Result{Name: b.res.Name, Entries: b.res.Entries, Ways: b.res.Ways}
}

// ConsumeLane implements trace.LaneConsumer: every instruction counts toward
// MPKI; the runs that end in a taken branch probe, and allocate on a miss.
func (b *BTB) ConsumeLane(l *isa.Lane) {
	p := l.Phase
	b.res.Insts[p] += int64(l.Insts)
	for i := range l.Runs {
		if r := &l.Runs[i]; r.Taken {
			b.res.Lookups[p]++
			if _, hit, _ := b.entries.Access(uint64(r.PC) >> 2); !hit {
				b.res.Misses[p]++
			}
		}
	}
}

// Result snapshots the run's counters as a mergeable, encodable record.
func (b *BTB) Result() *Result {
	r := b.res
	return &r
}

// Result holds one BTB configuration's counters over a stream: dynamic
// instructions, taken-branch probes, and misses, per phase (0 serial, 1
// parallel). It merges across shards of the same geometry and encodes as
// the canonical JSON artifact.
type Result struct {
	// Name is the Figure 7 legend name of the geometry.
	Name string
	// Entries and Ways are the geometry.
	Entries, Ways int
	// Insts, Lookups, and Misses count per phase (0 serial, 1 parallel).
	Insts   stats.Phases
	Lookups stats.Phases
	Misses  stats.Phases
}

func (r *Result) geometryName() string {
	if r.Entries >= 1024 && r.Entries%1024 == 0 {
		return fmt.Sprintf("%dK-entry, %d-way", r.Entries/1024, r.Ways)
	}
	return fmt.Sprintf("%d-entry, %d-way", r.Entries, r.Ways)
}

// MPKI returns BTB misses per kilo-instruction over the whole stream.
func (r *Result) MPKI() float64 { return stats.PerKilo(r.Misses.Total(), r.Insts.Total()) }

// MPKISerial returns MPKI over serial sections.
func (r *Result) MPKISerial() float64 { return stats.PerKilo(r.Misses[0], r.Insts[0]) }

// MPKIParallel returns MPKI over parallel sections.
func (r *Result) MPKIParallel() float64 { return stats.PerKilo(r.Misses[1], r.Insts[1]) }

// MissRate returns misses per taken-branch lookup.
func (r *Result) MissRate() float64 { return stats.Ratio(r.Misses.Total(), r.Lookups.Total()) }

// Merge folds another *Result's counters into r. A zero receiver adopts
// the other's geometry; otherwise the geometries must match.
func (r *Result) Merge(other any) error {
	o, ok := other.(*Result)
	if !ok {
		return fmt.Errorf("btb: cannot merge %T into *btb.Result", other)
	}
	if r.Entries == 0 {
		r.Name, r.Entries, r.Ways = o.Name, o.Entries, o.Ways
	} else if o.Entries != 0 && (o.Entries != r.Entries || o.Ways != r.Ways) {
		return fmt.Errorf("btb: cannot merge %q into %q", o.Name, r.Name)
	}
	r.Insts.Add(o.Insts)
	r.Lookups.Add(o.Lookups)
	r.Misses.Add(o.Misses)
	return nil
}

// AppendJSON appends the result's canonical JSON artifact to b: raw
// counters plus metrics derived from them, so ScanResult rebuilds a Result
// from the counters alone and re-encoding is byte-identical. Array counters
// are indexed [serial, parallel].
func (r *Result) AppendJSON(b []byte) ([]byte, error) {
	b = wire.AppendString(append(b, `{"name":`...), r.Name)
	b = strconv.AppendInt(append(b, `,"entries":`...), int64(r.Entries), 10)
	b = strconv.AppendInt(append(b, `,"ways":`...), int64(r.Ways), 10)
	b = wire.AppendInts(append(b, `,"insts":`...), r.Insts[:]...)
	b = wire.AppendInts(append(b, `,"lookups":`...), r.Lookups[:]...)
	b = wire.AppendInts(append(b, `,"misses":`...), r.Misses[:]...)
	b = wire.AppendFloat(append(b, `,"mpki":`...), r.MPKI())
	b = wire.AppendFloat(append(b, `,"mpki_serial":`...), r.MPKISerial())
	b = wire.AppendFloat(append(b, `,"mpki_parallel":`...), r.MPKIParallel())
	b = wire.AppendFloat(append(b, `,"miss_rate":`...), r.MissRate())
	return append(b, '}'), nil
}

// ScanResult is the one decode path of a Result's canonical JSON artifact,
// so a coordinator can fold shards produced by a remote worker, read in
// place from the record that embeds it. Derived metrics are read as numbers
// and recomputed from the counters on re-encode.
func ScanResult(sc *wire.Scanner) (*Result, error) {
	r := &Result{}
	r.Name = sc.Open('{').Key("name").String()
	r.Entries = sc.Key("entries").HostInt()
	r.Ways = sc.Key("ways").HostInt()
	sc.Key("insts").Ints(r.Insts[:]).Key("lookups").Ints(r.Lookups[:]).Key("misses").Ints(r.Misses[:])
	sc.SkipKeys("mpki", "mpki_serial", "mpki_parallel", "miss_rate")
	return wire.Scanned(sc.Close('}'), r)
}
