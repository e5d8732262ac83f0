package analysis

import (
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

// Reset restores the fresh analyzer NewBBL returned, in place.
func (a *BBL) Reset() { *a = BBL{} }

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

// AppendJSON appends the Figure 4 artifact per aggregation phase to b,
// plus the raw [serial, parallel] sums behind it, so ScanBBL rebuilds an
// identical result. The sums are integer-valued (block bytes and gaps are
// whole bytes), so they survive the JSON float round-trip exactly.
func (r *BBLResult) AppendJSON(b []byte) ([]byte, error) {
	var blocks [NumPhases]int64
	var avgBlock, avgGap [NumPhases]float64
	for pi, p := range Phases {
		blocks[pi], avgBlock[pi], avgGap[pi] = r.Blocks(p), r.AvgBlockBytes(p), r.AvgTakenDistance(p)
	}
	for _, fs := range [...][]float64{avgBlock[:], avgGap[:], r.BlockSum[:], r.GapSum[:]} {
		if err := wire.CheckFinite(fs...); err != nil {
			return nil, err
		}
	}
	b = wire.AppendInts(append(b, `{"blocks":`...), blocks[:]...)
	b = wire.AppendFloats(append(b, `,"avg_block_bytes":`...), avgBlock[:]...)
	b = wire.AppendFloats(append(b, `,"avg_taken_dist_bytes":`...), avgGap[:]...)
	b = wire.AppendFloats(append(b, `,"counters":{"block_sum":`...), r.BlockSum[:]...)
	b = wire.AppendInts(append(b, `,"block_n":`...), r.BlockN[:]...)
	b = wire.AppendFloats(append(b, `,"gap_sum":`...), r.GapSum[:]...)
	b = wire.AppendInts(append(b, `,"gap_n":`...), r.GapN[:]...)
	return append(b, "}}"...), nil
}

// ScanBBL is the one decode path of a BBLResult's canonical JSON artifact,
// read in place from the record that embeds it. Derived averages are read
// as numbers and recomputed from the raw sums on re-encode.
func ScanBBL(sc *wire.Scanner) (*BBLResult, error) {
	r := &BBLResult{}
	var blocks [NumPhases]int64
	sc.Open('{').Key("blocks").Ints(blocks[:])
	sc.Key("avg_block_bytes").SkipFloats(NumPhases).Key("avg_taken_dist_bytes").SkipFloats(NumPhases)
	sc.Key("counters").Open('{').Key("block_sum").Floats(r.BlockSum[:]).Key("block_n").Ints(r.BlockN[:])
	sc.Key("gap_sum").Floats(r.GapSum[:]).Key("gap_n").Ints(r.GapN[:])
	return wire.Scanned(sc.Close('}').Close('}'), r)
}
