package analysis

import (
	"encoding/json"
	"fmt"

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
// result contract (Merge, EncodeJSON).
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

// mixWire is the canonical JSON shape of a MixResult: the Figure 1
// artifact (derived percentages per aggregation phase) plus the raw
// per-phase counters the derivation and merging work from, so
// NewMixTarget rebuilds an identical result from the counters alone.
type mixWire struct {
	Insts     [NumPhases]int64              `json:"insts"`
	BranchPct [NumPhases]float64            `json:"branch_pct"`
	KindPct   map[string][NumPhases]float64 `json:"kind_pct"`
	Counters  mixCounters                   `json:"counters"`
}

// mixCounters are the raw [serial, parallel] counters behind the artifact.
type mixCounters struct {
	Insts [2]int64               `json:"insts"`
	Kinds [2][isa.NumKinds]int64 `json:"kinds"`
}

// EncodeJSON renders the Figure 1 artifact: per aggregation phase (total,
// serial, parallel), the dynamic instruction count, each kind's percentage
// share, and the total branch percentage, plus the raw counters remote
// coordinators decode and merge. A result that saw no instruction carries
// no kind rows.
func (r *MixResult) EncodeJSON() ([]byte, error) {
	var out mixWire
	out.Counters = mixCounters{Insts: r.Insts, Kinds: r.Kinds}
	for pi, p := range Phases {
		out.Insts[pi] = r.InstCount(p)
		out.BranchPct[pi] = r.BranchPct(p)
	}
	out.KindPct = make(map[string][NumPhases]float64, isa.NumKinds)
	if r.Insts != [2]int64{} {
		for k := 0; k < isa.NumKinds; k++ {
			var pcts [NumPhases]float64
			for pi, p := range Phases {
				pcts[pi] = r.KindPct(p, isa.Kind(k))
			}
			out.KindPct[isa.Kind(k).String()] = pcts
		}
	}
	return json.Marshal(&out)
}

// NewMixTarget is the one decode path of a MixResult's canonical JSON
// artifact, as a wire.Target; wire.Decode parses one alone. Derived
// percentages are recomputed from the raw counters on re-encode.
func NewMixTarget() (ptr any, build func() (*MixResult, error)) {
	return wire.Target(func(w *mixWire) (*MixResult, error) {
		return &MixResult{Insts: w.Counters.Insts, Kinds: w.Counters.Kinds}, nil
	})
}
