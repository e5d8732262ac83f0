package analysis

import (
	"encoding/json"
	"fmt"

	"rebalance/internal/isa"
	"rebalance/internal/wire"
)

// BBL reproduces the Figure 4 pintool: the average dynamic basic-block
// length in bytes (a block ends at any control-flow instruction, which is
// included in its block, matching Pin's trace/BBL definition) and the
// average distance in bytes between consecutive *taken* branches — the
// length of the sequential fetch runs the I-cache sees.
type BBL struct {
	res BBLResult

	curBlock [2]int64 // bytes accumulated in the current block per phase
	curRun   [2]int64 // bytes accumulated since the last taken branch
}

// NewBBL returns a fresh basic-block analyzer.
func NewBBL() *BBL { return &BBL{} }

// ConsumeLane implements trace.LaneConsumer: a run's bytes extend the open
// block and the open taken-branch gap, and the branch that ends it closes
// them.
func (a *BBL) ConsumeLane(l *isa.Lane) {
	p := l.Phase
	for i := range l.Runs {
		r := &l.Runs[i]
		a.curBlock[p] += int64(r.Bytes)
		a.curRun[p] += int64(r.Bytes)
		if !r.Kind.IsBranch() {
			continue
		}
		// Any branch instruction terminates the basic block.
		a.res.BlockSum[p] += float64(a.curBlock[p])
		a.res.BlockN[p]++
		a.curBlock[p] = 0
		if r.Taken {
			a.res.GapSum[p] += float64(a.curRun[p])
			a.res.GapN[p]++
			a.curRun[p] = 0
		}
	}
}

// Result snapshots the analyzer's accumulators. A partial block or run
// still open at the end of the stream is not counted.
func (a *BBL) Result() *BBLResult {
	r := a.res
	return &r
}

// BBLResult is the mergeable Figure 4 record: exact sums and counts of
// dynamic basic-block lengths and taken-branch gaps per phase (0 serial,
// 1 parallel). The sums are whole bytes, so shards merge exactly. It
// implements the sim result contract.
type BBLResult struct {
	BlockSum [2]float64
	BlockN   [2]int64
	GapSum   [2]float64
	GapN     [2]int64
}

// Blocks returns the number of dynamic basic blocks in the phase.
func (r *BBLResult) Blocks(p Phase) int64 { return over(r.BlockN, p) }

// AvgBlockBytes returns the mean dynamic basic-block length in bytes.
func (r *BBLResult) AvgBlockBytes(p Phase) float64 { return avgOver(r.BlockSum, r.BlockN, p) }

// AvgTakenDistance returns the mean distance in bytes between consecutive
// taken branches.
func (r *BBLResult) AvgTakenDistance(p Phase) float64 { return avgOver(r.GapSum, r.GapN, p) }

// avgOver is the mean of a (sum, count) accumulator pair over the phase.
func avgOver(sum [2]float64, n [2]int64, p Phase) float64 {
	var s float64
	var c int64
	for _, i := range phaseRange(p) {
		s += sum[i]
		c += n[i]
	}
	if c == 0 {
		return 0
	}
	return s / float64(c)
}

// Merge folds another *BBLResult's sums into r.
func (r *BBLResult) Merge(other any) error {
	o, ok := other.(*BBLResult)
	if !ok {
		return fmt.Errorf("analysis: cannot merge %T into *analysis.BBLResult", other)
	}
	for i := 0; i < 2; i++ {
		r.BlockSum[i] += o.BlockSum[i]
		r.BlockN[i] += o.BlockN[i]
		r.GapSum[i] += o.GapSum[i]
		r.GapN[i] += o.GapN[i]
	}
	return nil
}

// bblWire is the canonical JSON shape of a BBLResult: the Figure 4
// artifact plus the raw sums behind it, so NewBBLTarget rebuilds an
// identical result. The sums are integer-valued (block bytes and gaps are
// whole bytes), so they survive the JSON float round-trip exactly.
type bblWire struct {
	Blocks        [NumPhases]int64   `json:"blocks"`
	AvgBlockB     [NumPhases]float64 `json:"avg_block_bytes"`
	AvgTakenDistB [NumPhases]float64 `json:"avg_taken_dist_bytes"`
	Counters      bblCounters        `json:"counters"`
}

// bblCounters are the raw [serial, parallel] accumulators behind the
// artifact.
type bblCounters struct {
	BlockSum [2]float64 `json:"block_sum"`
	BlockN   [2]int64   `json:"block_n"`
	GapSum   [2]float64 `json:"gap_sum"`
	GapN     [2]int64   `json:"gap_n"`
}

// EncodeJSON renders the Figure 4 artifact per aggregation phase, plus the
// raw counters remote coordinators decode and merge.
func (r *BBLResult) EncodeJSON() ([]byte, error) {
	var out bblWire
	out.Counters = bblCounters{BlockSum: r.BlockSum, BlockN: r.BlockN, GapSum: r.GapSum, GapN: r.GapN}
	for pi, p := range Phases {
		out.Blocks[pi] = r.Blocks(p)
		out.AvgBlockB[pi] = r.AvgBlockBytes(p)
		out.AvgTakenDistB[pi] = r.AvgTakenDistance(p)
	}
	return json.Marshal(&out)
}

// NewBBLTarget is the one decode path of a BBLResult's canonical JSON
// artifact, as a wire.Target; wire.Decode parses one alone. Derived
// averages are recomputed from the raw sums on re-encode.
func NewBBLTarget() (ptr any, build func() (*BBLResult, error)) {
	return wire.Target(func(w *bblWire) (*BBLResult, error) {
		c := &w.Counters
		return &BBLResult{BlockSum: c.BlockSum, BlockN: c.BlockN, GapSum: c.GapSum, GapN: c.GapN}, nil
	})
}
