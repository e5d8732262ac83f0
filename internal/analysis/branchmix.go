package analysis

import (
	"fmt"
	"slices"
	"strings"

	"rebalance/internal/isa"
	"rebalance/internal/wire"
)

// BranchMix reproduces the Figure 1 pintool: it counts every dynamic
// instruction and classifies the control-flow instructions by kind, split
// by serial/parallel code section.
type BranchMix struct {
	res MixResult
}

// NewBranchMix returns a fresh branch-mix analyzer.
func NewBranchMix() *BranchMix { return &BranchMix{} }

// Reset restores the fresh analyzer NewBranchMix returned, in place.
func (a *BranchMix) Reset() { *a = BranchMix{} }

// ConsumeLane implements trace.LaneConsumer. A run's last instruction has
// the run's kind (KindOther when no branch ended it) and every instruction
// before it is a non-branch.
func (a *BranchMix) ConsumeLane(l *isa.Lane) {
	p := l.Phase
	a.res.Insts[p] += int64(l.Insts)
	a.res.Kinds[p][isa.KindOther] += int64(l.Insts - len(l.Runs))
	for i := range l.Runs {
		a.res.Kinds[p][l.Runs[i].Kind]++
	}
}

// Result snapshots the analyzer's counters.
func (a *BranchMix) Result() *MixResult {
	r := a.res
	return &r
}

// MixResult is the mergeable Figure 1 record: dynamic instruction and
// per-kind counts per phase (0 serial, 1 parallel). It implements the sim
// result contract (Merge, AppendJSON).
type MixResult struct {
	Insts [2]int64
	Kinds [2][isa.NumKinds]int64
}

// InstCount returns the dynamic instruction count for the phase.
func (r *MixResult) InstCount(p Phase) int64 { return over(r.Insts, p) }

// Count returns the dynamic count of the kind in the phase.
func (r *MixResult) Count(p Phase, k isa.Kind) int64 {
	return over([2]int64{r.Kinds[0][k], r.Kinds[1][k]}, p)
}

// pct returns c as a percentage of n, 0 for an empty phase. The product is
// taken before the quotient: (100*c)/n and 100*(c/n) differ in the last
// ulp, and this is the form the committed goldens carry.
func pct(c, n int64) float64 {
	if n == 0 {
		return 0
	}
	return 100 * float64(c) / float64(n)
}

// KindPct returns the kind's percentage share (0..100) of all dynamic
// instructions in the phase, as the percentage axis of Figure 1 uses.
func (r *MixResult) KindPct(p Phase, k isa.Kind) float64 {
	return pct(r.Count(p, k), r.InstCount(p))
}

// BranchPct returns the percentage of all dynamic instructions in the
// phase that are control-flow instructions of any kind (the bar heights of
// Figure 1).
func (r *MixResult) BranchPct(p Phase) float64 {
	var branches int64
	for k := 0; k < isa.NumKinds; k++ {
		if isa.Kind(k).IsBranch() {
			branches += r.Count(p, isa.Kind(k))
		}
	}
	return pct(branches, r.InstCount(p))
}

// Merge folds another *MixResult's counters into r.
func (r *MixResult) Merge(other any) error {
	o, ok := other.(*MixResult)
	if !ok {
		return fmt.Errorf("analysis: cannot merge %T into *analysis.MixResult", other)
	}
	for p := 0; p < 2; p++ {
		r.Insts[p] += o.Insts[p]
		for k := 0; k < isa.NumKinds; k++ {
			r.Kinds[p][k] += o.Kinds[p][k]
		}
	}
	return nil
}

// kindsByName are the kinds in the order of their names, the order
// encoding/json wrote the artifact's kind_pct map in.
var kindsByName = func() []isa.Kind {
	ks := make([]isa.Kind, isa.NumKinds)
	for k := range ks {
		ks[k] = isa.Kind(k)
	}
	slices.SortFunc(ks, func(a, b isa.Kind) int { return strings.Compare(a.String(), b.String()) })
	return ks
}()

// AppendJSON appends the Figure 1 artifact to b: per aggregation phase
// (total, serial, parallel), the dynamic instruction count, each kind's
// percentage share (by kind name) and the total branch percentage, plus the
// raw [serial, parallel] counters remote coordinators decode and merge, so
// ScanMix rebuilds an identical result from the counters alone. A result
// that saw no instruction carries no kind rows.
func (r *MixResult) AppendJSON(b []byte) ([]byte, error) {
	var insts [NumPhases]int64
	var branch, pcts [NumPhases]float64
	for pi, p := range Phases {
		insts[pi], branch[pi] = r.InstCount(p), r.BranchPct(p)
	}
	b = wire.AppendInts(append(b, `{"insts":`...), insts[:]...)
	b = wire.AppendFloats(append(b, `,"branch_pct":`...), branch[:]...)
	b = append(b, `,"kind_pct":{`...)
	kinds := kindsByName
	if r.Insts == [2]int64{} {
		kinds = nil
	}
	for i, k := range kinds {
		if i > 0 {
			b = append(b, ',')
		}
		for pi, p := range Phases {
			pcts[pi] = r.KindPct(p, k)
		}
		b = wire.AppendFloats(append(wire.AppendString(b, k.String()), ':'), pcts[:]...)
	}
	b = wire.AppendInts(append(b, `},"counters":{"insts":`...), r.Insts[:]...)
	b = wire.AppendInts(append(b, `,"kinds":[`...), r.Kinds[0][:]...)
	b = wire.AppendInts(append(b, ','), r.Kinds[1][:]...)
	return append(b, "]}}"...), nil
}

// ScanMix is the one decode path of a MixResult's canonical JSON artifact,
// read in place from the record that embeds it. Derived percentages are
// read as numbers and recomputed from the raw counters on re-encode; kind
// rows are read in name order, each one optional.
func ScanMix(sc *wire.Scanner) (*MixResult, error) {
	r := &MixResult{}
	var insts [NumPhases]int64
	sc.Open('{').Key("insts").Ints(insts[:]).Key("branch_pct").SkipFloats(NumPhases)
	sc.Key("kind_pct").Open('{')
	for _, k := range kindsByName {
		if sc.Field(k.String()) {
			sc.SkipFloats(NumPhases)
		}
	}
	sc.Close('}').Key("counters").Open('{').Key("insts").Ints(r.Insts[:])
	sc.Key("kinds").Open('[').Ints(r.Kinds[0][:]).Ints(r.Kinds[1][:]).Close(']')
	return wire.Scanned(sc.Close('}').Close('}'), r)
}
