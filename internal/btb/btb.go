// Package btb implements the branch target buffer simulator of Section IV-B:
// a set-associative cache, indexed by branch address with simple modulo
// indexing (the paper points to this as the source of aliasing that makes
// high associativity matter for ExMatEx), storing the target of taken
// branches. A BTB miss is a taken branch whose entry is absent at fetch.
//
// Following the paper, only branches resolved taken are allocated: not-taken
// branches continue fetching from the next sequential instruction and need
// no entry. The simulator therefore consumes fetch runs (trace.LaneConsumer),
// not instructions: it acts on the runs that end in a taken branch and only
// counts the rest.
package btb

import (
	"encoding/json"
	"fmt"

	"rebalance/internal/isa"
	"rebalance/internal/wire"
)

// tagShift drops the index bits when forming tags; a full tag is kept so
// aliased hits cannot occur (as in a real BTB with complete tags).
type entry struct {
	valid bool
	tag   uint64
	// target is stored for interface completeness; the simulator only
	// needs presence to decide hit/miss.
	target isa.Addr
	lru    uint32
}

// BTB is a set-associative branch target buffer with true-LRU replacement.
type BTB struct {
	sets  int
	data  []entry
	clock uint32

	// res accumulates the run's counters; Result() snapshots it.
	res Result
}

// MaxEntries bounds a BTB's size: over 1000x the paper's largest, and small
// enough that a geometry taken from a request cannot exhaust memory.
const MaxEntries = 1 << 20

// GeometryError reports why a geometry is invalid, or nil if it is usable.
func GeometryError(entries, ways int) error {
	if entries <= 0 || ways <= 0 || entries%ways != 0 || entries > MaxEntries {
		return fmt.Errorf("btb: invalid geometry %d entries, %d ways (at most %d entries)", entries, ways, MaxEntries)
	}
	return nil
}

// New returns a BTB with the given total entries and associativity.
// Entries must be divisible by ways.
func New(entries, ways int) *BTB {
	if err := GeometryError(entries, ways); err != nil {
		panic(err.Error())
	}
	b := &BTB{
		sets: entries / ways,
		data: make([]entry, entries),
	}
	b.res = Result{Entries: entries, Ways: ways}
	b.res.Name = b.res.geometryName()
	return b
}

// index computes the set index from the branch address: the paper's
// "simple modulo indexing".
func (b *BTB) index(pc isa.Addr) int {
	return int((uint64(pc) >> 2) % uint64(b.sets))
}

func (b *BTB) tag(pc isa.Addr) uint64 { return uint64(pc) >> 2 }

// ConsumeLane implements trace.LaneConsumer: every instruction counts toward
// MPKI; the runs that end in a taken branch probe and allocate.
func (b *BTB) ConsumeLane(l *isa.Lane) {
	p := l.Phase
	b.res.Insts[p] += int64(l.Insts)
	for i := range l.Runs {
		if r := &l.Runs[i]; r.Taken {
			b.probe(r.PC, r.Target, p)
		}
	}
}

// probe looks up the taken branch at pc, allocating its entry on a miss.
func (b *BTB) probe(pc, target isa.Addr, p int) {
	b.res.Lookups[p]++
	b.clock++
	ways := b.res.Ways
	set := b.index(pc)
	tag := b.tag(pc)
	base := set * ways
	for w := 0; w < ways; w++ {
		e := &b.data[base+w]
		if e.valid && e.tag == tag {
			e.lru = b.clock
			e.target = target
			return // hit
		}
	}
	b.res.Misses[p]++
	victim := base
	for w := 0; w < ways; w++ {
		e := &b.data[base+w]
		if !e.valid {
			victim = base + w
			break
		}
		if e.lru < b.data[victim].lru {
			victim = base + w
		}
	}
	b.data[victim] = entry{valid: true, tag: tag, target: target, lru: b.clock}
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
	Insts   [2]int64
	Lookups [2]int64
	Misses  [2]int64
}

func (r *Result) geometryName() string {
	if r.Entries >= 1024 && r.Entries%1024 == 0 {
		return fmt.Sprintf("%dK-entry, %d-way", r.Entries/1024, r.Ways)
	}
	return fmt.Sprintf("%d-entry, %d-way", r.Entries, r.Ways)
}

// MPKI returns BTB misses per kilo-instruction over the whole stream.
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

// MissRate returns misses per taken-branch lookup.
func (r *Result) MissRate() float64 {
	l := r.Lookups[0] + r.Lookups[1]
	if l == 0 {
		return 0
	}
	return float64(r.Misses[0]+r.Misses[1]) / float64(l)
}

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
	for p := 0; p < 2; p++ {
		r.Insts[p] += o.Insts[p]
		r.Lookups[p] += o.Lookups[p]
		r.Misses[p] += o.Misses[p]
	}
	return nil
}

// resultWire is the canonical JSON shape: raw counters plus metrics
// derived from them, so NewTarget rebuilds a Result from the counters
// alone and re-encoding is byte-identical.
type resultWire struct {
	Name         string   `json:"name"`
	Entries      int      `json:"entries"`
	Ways         int      `json:"ways"`
	Insts        [2]int64 `json:"insts"`
	Lookups      [2]int64 `json:"lookups"`
	Misses       [2]int64 `json:"misses"`
	MPKI         float64  `json:"mpki"`
	MPKISerial   float64  `json:"mpki_serial"`
	MPKIParallel float64  `json:"mpki_parallel"`
	MissRate     float64  `json:"miss_rate"`
}

// EncodeJSON renders the result as its canonical JSON artifact. Array
// counters are indexed [serial, parallel].
func (r *Result) EncodeJSON() ([]byte, error) {
	return json.Marshal(resultWire{Name: r.Name, Entries: r.Entries, Ways: r.Ways, Insts: r.Insts, Lookups: r.Lookups, Misses: r.Misses,
		MPKI: r.MPKI(), MPKISerial: r.MPKISerial(), MPKIParallel: r.MPKIParallel(), MissRate: r.MissRate()})
}

// NewTarget is the one decode path of a Result's canonical JSON artifact,
// so a coordinator can fold shards produced by a remote worker, as a
// wire.Target: a document that embeds the artifact (a shard record) parses
// it in the same pass as itself, and wire.Decode parses it alone. Derived
// metrics are recomputed from the counters.
func NewTarget() (ptr any, build func() (*Result, error)) {
	return wire.Target(func(w *resultWire) (*Result, error) {
		return &Result{Name: w.Name, Entries: w.Entries, Ways: w.Ways, Insts: w.Insts, Lookups: w.Lookups, Misses: w.Misses}, nil
	})
}
