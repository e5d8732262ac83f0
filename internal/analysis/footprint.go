package analysis

import (
	"encoding/json"
	"fmt"

	"sort"

	"rebalance/internal/isa"
	"rebalance/internal/stats"
	"rebalance/internal/wire"
)

// footprintGranularity is the chunk size (bytes) at which dynamic footprints
// are accounted. The paper's pintool accounts per basic block; chunked
// accounting at sub-line granularity measures the same "memory needed to
// hold X% of dynamic instructions" to within one chunk.
const footprintGranularity = 32

// Footprint reproduces the Figure 3 pintool: it weights every executed
// address chunk by the dynamic instructions it supplied, then computes the
// smallest memory that covers a given fraction (the paper uses 99%) of all
// dynamic instructions. The static footprint comes from the program image
// (program.Program.TextSize), not from this observer.
//
// Footprint counts instructions per 32-byte chunk, and a run's byte range
// alone does not say how its instructions divide among the chunks it covers:
// it is the one consumer that walks a lane's per-instruction sizes.
type Footprint struct {
	chunks [2]map[uint64]int64 // per phase: chunk index -> dynamic insts
}

// NewFootprint returns a fresh footprint analyzer.
func NewFootprint() *Footprint {
	return &Footprint{chunks: [2]map[uint64]int64{make(map[uint64]int64), make(map[uint64]int64)}}
}

// ConsumeLane implements trace.LaneConsumer: it steps through each run by
// its instruction sizes and credits every instruction to its first byte's
// chunk — an instruction may straddle a chunk boundary, and crediting one
// chunk keeps accounting single-increment and accurate to one chunk.
// Consecutive instructions mostly land in the same chunk, so they are
// coalesced into a single map update.
func (a *Footprint) ConsumeLane(l *isa.Lane) {
	chunks := a.chunks[l.Phase]
	sizes := l.Sizes
	var cur uint64
	var n int64
	for i := range l.Runs {
		r := &l.Runs[i]
		pc := uint64(r.Start)
		for _, sz := range sizes[:r.Insts] {
			if ch := pc / footprintGranularity; ch != cur {
				if n > 0 {
					chunks[cur] += n
				}
				cur, n = ch, 0
			}
			n++
			pc += uint64(sz)
		}
		sizes = sizes[r.Insts:]
	}
	if n > 0 {
		chunks[cur] += n
	}
}

// FootprintResult is the mergeable Figure 3 record: the per-phase chunk
// heat maps plus the program's static text size. Chunks are code
// addresses, so shards of the same workload merge chunk-by-chunk. It
// implements the sim result contract.
type FootprintResult struct {
	StaticBytes int64
	Chunks      [2]map[uint64]int64
}

// Result snapshots the analyzer's chunk maps (deep copy); staticBytes is
// the program's text size (program.Program.TextSize).
func (a *Footprint) Result(staticBytes int64) *FootprintResult {
	r := &FootprintResult{StaticBytes: staticBytes}
	for i := 0; i < 2; i++ {
		r.Chunks[i] = make(map[uint64]int64, len(a.chunks[i]))
		for c, w := range a.chunks[i] { //repolint:allow nodeterminism map-to-map deep copy, no ordered output
			r.Chunks[i][c] = w
		}
	}
	return r
}

// Merge folds another *FootprintResult's chunk weights into r. The static
// sizes must agree (same program image).
func (r *FootprintResult) Merge(other any) error {
	o, ok := other.(*FootprintResult)
	if !ok {
		return fmt.Errorf("analysis: cannot merge %T into *analysis.FootprintResult", other)
	}
	if r.StaticBytes == 0 {
		r.StaticBytes = o.StaticBytes
	} else if o.StaticBytes != 0 && o.StaticBytes != r.StaticBytes {
		return fmt.Errorf("analysis: merging footprints of different programs (%dB vs %dB static)", o.StaticBytes, r.StaticBytes)
	}
	for i := 0; i < 2; i++ {
		if r.Chunks[i] == nil {
			r.Chunks[i] = make(map[uint64]int64, len(o.Chunks[i]))
		}
		for c, w := range o.Chunks[i] { //repolint:allow nodeterminism order-insensitive fold (commutative integer adds per key)
			r.Chunks[i][c] += w
		}
	}
	return nil
}

// DynamicBytes returns the smallest number of bytes of code that covers the
// given fraction of the phase's dynamic instructions: Figure 3 plots
// coverage 0.99, and coverage 1 is the touched footprint (code executed at
// least once).
func (r *FootprintResult) DynamicBytes(p Phase, coverage float64) int64 {
	merged := make(map[uint64]int64)
	for _, i := range phaseRange(p) {
		for c, w := range r.Chunks[i] { //repolint:allow nodeterminism order-insensitive fold (commutative integer adds per key)
			merged[c] += w
		}
	}
	items := make([]stats.WeightedItem, 0, len(merged))
	for _, w := range merged { //repolint:allow nodeterminism coverage depends only on the weight multiset
		items = append(items, stats.WeightedItem{Size: footprintGranularity, Weight: w})
	}
	return stats.FootprintForCoverage(items, coverage)
}

// footprintWire is the canonical JSON shape of a FootprintResult: the
// Figure 3 artifact plus the raw per-phase chunk heat maps behind it, so
// NewFootprintTarget rebuilds an identical result. Chunks are sorted so
// the encoding is deterministic regardless of map iteration order.
type footprintWire struct {
	StaticKB  float64            `json:"static_kb"`
	Dyn99KB   [NumPhases]float64 `json:"dyn99_kb"`
	TouchedKB [NumPhases]float64 `json:"touched_kb"`
	Counters  footprintCounters  `json:"counters"`
}

// footprintCounters are the raw counters behind the artifact: the static
// text size and, per phase (0 serial, 1 parallel), the instruction weight
// of every touched code chunk.
type footprintCounters struct {
	StaticBytes int64          `json:"static_bytes"`
	Chunks      [2][]chunkWire `json:"chunks"`
}

// chunkWire is one touched code chunk and its dynamic instruction weight.
type chunkWire struct {
	Chunk  uint64 `json:"chunk"`
	Weight int64  `json:"weight"`
}

// EncodeJSON renders the Figure 3 artifact per aggregation phase — static,
// 99%-dynamic, and touched footprints in KB — plus the raw counters remote
// coordinators decode and merge.
func (r *FootprintResult) EncodeJSON() ([]byte, error) {
	var out footprintWire
	out.Counters.StaticBytes = r.StaticBytes
	for i := 0; i < 2; i++ {
		cs := make([]chunkWire, 0, len(r.Chunks[i]))
		for c, w := range r.Chunks[i] { //repolint:allow nodeterminism appended then sorted before encoding
			cs = append(cs, chunkWire{Chunk: c, Weight: w})
		}
		sort.Slice(cs, func(a, b int) bool { return cs[a].Chunk < cs[b].Chunk })
		out.Counters.Chunks[i] = cs
	}
	out.StaticKB = float64(r.StaticBytes) / 1024
	for pi, p := range Phases {
		out.Dyn99KB[pi] = float64(r.DynamicBytes(p, 0.99)) / 1024
		out.TouchedKB[pi] = float64(r.DynamicBytes(p, 1.0)) / 1024
	}
	return json.Marshal(&out)
}

// NewFootprintTarget is the one decode path of a FootprintResult's
// canonical JSON artifact, as a wire.Target; wire.Decode parses one alone.
// Duplicate chunks are rejected.
func NewFootprintTarget() (ptr any, build func() (*FootprintResult, error)) {
	return wire.Target(func(w *footprintWire) (*FootprintResult, error) {
		r := &FootprintResult{StaticBytes: w.Counters.StaticBytes}
		for i := 0; i < 2; i++ {
			r.Chunks[i] = make(map[uint64]int64, len(w.Counters.Chunks[i]))
			for _, c := range w.Counters.Chunks[i] {
				if _, dup := r.Chunks[i][c.Chunk]; dup {
					return nil, fmt.Errorf("duplicate chunk %#x", c.Chunk)
				}
				r.Chunks[i][c.Chunk] = c.Weight
			}
		}
		return r, nil
	})
}
