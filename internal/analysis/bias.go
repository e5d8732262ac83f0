package analysis

import (
	"encoding/json"
	"fmt"

	"sort"

	"rebalance/internal/isa"
	"rebalance/internal/stats"
	"rebalance/internal/wire"
)

// Bias reproduces the Figure 2 / Table I pintool: for every conditional
// direct branch site it tracks executions and taken outcomes per phase, and
// for every taken conditional branch whether it jumped backward or forward.
//
// Figure 2's stacked bars are the distribution of *dynamic* conditional
// branches over their site's taken percentage, in ten 10%-wide buckets.
type Bias struct {
	// Per-site counters, grown on demand; index is the site identity
	// derived from the branch PC (sites are unique PCs).
	exec  map[isa.Addr]*SiteBias
	dirs  [2][isa.NumDirections]int64 // per phase, conditional branches only
	conds [2]int64                    // dynamic conditional branches per phase
}

// NewBias returns a fresh direction-bias analyzer.
func NewBias() *Bias {
	return &Bias{exec: make(map[isa.Addr]*SiteBias)}
}

// ConsumeLane implements trace.LaneConsumer: only the runs that end in a
// conditional branch count.
func (a *Bias) ConsumeLane(l *isa.Lane) {
	p := l.Phase
	for i := range l.Runs {
		r := &l.Runs[i]
		if !r.Kind.IsConditional() {
			continue
		}
		s := a.exec[r.PC]
		if s == nil {
			s = &SiteBias{}
			a.exec[r.PC] = s
		}
		s.Exec[p]++
		a.conds[p]++
		if r.Taken {
			s.Taken[p]++
		}
		a.dirs[p][r.BranchDirection()]++
	}
}

// SiteBias is one conditional branch site's execution and taken counts per
// phase (0 serial, 1 parallel).
type SiteBias struct {
	Exec  [2]int64
	Taken [2]int64
}

// BiasResult is the mergeable Figure 2 + Table I record: per-site
// direction counters keyed by branch PC. Sites are code addresses, so
// shards of the same workload merge site-by-site. It implements the sim
// result contract.
type BiasResult struct {
	Sites map[isa.Addr]SiteBias
	Dirs  [2][isa.NumDirections]int64
	Conds [2]int64
}

// Result snapshots the analyzer's counters (deep copy).
func (a *Bias) Result() *BiasResult {
	r := &BiasResult{Sites: make(map[isa.Addr]SiteBias, len(a.exec)), Dirs: a.dirs, Conds: a.conds}
	for pc, s := range a.exec { //repolint:allow nodeterminism map-to-map deep copy, no ordered output
		r.Sites[pc] = *s
	}
	return r
}

// Merge folds another *BiasResult's counters into r.
func (r *BiasResult) Merge(other any) error {
	o, ok := other.(*BiasResult)
	if !ok {
		return fmt.Errorf("analysis: cannot merge %T into *analysis.BiasResult", other)
	}
	if r.Sites == nil {
		r.Sites = make(map[isa.Addr]SiteBias, len(o.Sites))
	}
	for pc, os := range o.Sites { //repolint:allow nodeterminism order-insensitive fold (commutative integer adds per key)
		s := r.Sites[pc]
		for i := 0; i < 2; i++ {
			s.Exec[i] += os.Exec[i]
			s.Taken[i] += os.Taken[i]
		}
		r.Sites[pc] = s
	}
	for i := 0; i < 2; i++ {
		r.Conds[i] += o.Conds[i]
		for d := 0; d < isa.NumDirections; d++ {
			r.Dirs[i][d] += o.Dirs[i][d]
		}
	}
	return nil
}

// Histogram returns the Figure 2 distribution for the phase: a 10-bucket
// histogram of dynamic conditional branches by their site's taken rate.
// Its two extreme buckets are the paper's headline "80% to 90% of branches
// are dominantly taken or not taken".
func (r *BiasResult) Histogram(p Phase) *stats.Histogram {
	h := stats.NewHistogram(10)
	for _, s := range r.Sites { //repolint:allow nodeterminism per-site histogram increments commute
		exec := over(s.Exec, p)
		if exec == 0 {
			continue
		}
		h.Add(float64(over(s.Taken, p))/float64(exec), exec)
	}
	return h
}

// TakenDirection returns the counts of taken conditional branches by
// direction for the phase: backward and forward (Table I).
func (r *BiasResult) TakenDirection(p Phase) (backward, forward int64) {
	for _, i := range phaseRange(p) {
		backward += r.Dirs[i][isa.DirTakenBackward]
		forward += r.Dirs[i][isa.DirTakenForward]
	}
	return backward, forward
}

// biasWire is the canonical JSON shape of a BiasResult: the Figure 2 +
// Table I artifact plus the raw per-site counters behind it, so
// NewBiasTarget rebuilds an identical result. Sites are sorted by PC
// so the encoding is deterministic regardless of map iteration order.
type biasWire struct {
	Sites       int                    `json:"sites"`
	Buckets     [NumPhases][10]float64 `json:"buckets_pct"`
	BiasedPct   [NumPhases]float64     `json:"biased_pct"`
	BackwardPct [NumPhases]float64     `json:"backward_pct"`
	ForwardPct  [NumPhases]float64     `json:"forward_pct"`
	TakenPct    [NumPhases]float64     `json:"taken_pct"`
	Counters    biasCounters           `json:"counters"`
}

// biasCounters are the raw [serial, parallel] counters behind the artifact.
type biasCounters struct {
	Sites []siteWire                  `json:"sites"`
	Dirs  [2][isa.NumDirections]int64 `json:"dirs"`
	Conds [2]int64                    `json:"conds"`
}

// siteWire is one branch site's direction counters, keyed by code address.
type siteWire struct {
	PC    uint64   `json:"pc"`
	Exec  [2]int64 `json:"exec"`
	Taken [2]int64 `json:"taken"`
}

// EncodeJSON renders the Figure 2 + Table I artifact per aggregation
// phase, plus the raw counters remote coordinators decode and merge.
func (r *BiasResult) EncodeJSON() ([]byte, error) {
	var out biasWire
	out.Counters.Dirs = r.Dirs
	out.Counters.Conds = r.Conds
	out.Counters.Sites = make([]siteWire, 0, len(r.Sites))
	for pc, s := range r.Sites { //repolint:allow nodeterminism appended then sorted before encoding
		out.Counters.Sites = append(out.Counters.Sites, siteWire{PC: uint64(pc), Exec: s.Exec, Taken: s.Taken})
	}
	sort.Slice(out.Counters.Sites, func(i, j int) bool {
		return out.Counters.Sites[i].PC < out.Counters.Sites[j].PC
	})
	out.Sites = len(r.Sites)
	for pi, p := range Phases {
		h := r.Histogram(p)
		for b := 0; b < 10; b++ {
			out.Buckets[pi][b] = 100 * h.Fraction(b)
		}
		out.BiasedPct[pi] = 100 * (h.Fraction(0) + h.Fraction(h.Buckets()-1))
		back, fwd := r.TakenDirection(p)
		if back+fwd > 0 {
			out.BackwardPct[pi] = 100 * float64(back) / float64(back+fwd)
			out.ForwardPct[pi] = 100 * float64(fwd) / float64(back+fwd)
		}
		if conds := over(r.Conds, p); conds > 0 {
			out.TakenPct[pi] = 100 * float64(back+fwd) / float64(conds)
		}
	}
	return json.Marshal(&out)
}

// NewBiasTarget is the one decode path of a BiasResult's canonical JSON
// artifact, as a wire.Target; wire.Decode parses one alone. A duplicated
// site PC means the artifact was not produced by EncodeJSON and is an
// error.
func NewBiasTarget() (ptr any, build func() (*BiasResult, error)) {
	return wire.Target(func(w *biasWire) (*BiasResult, error) {
		r := &BiasResult{
			Sites: make(map[isa.Addr]SiteBias, len(w.Counters.Sites)),
			Dirs:  w.Counters.Dirs,
			Conds: w.Counters.Conds,
		}
		for _, s := range w.Counters.Sites {
			pc := isa.Addr(s.PC)
			if _, dup := r.Sites[pc]; dup {
				return nil, fmt.Errorf("duplicate site pc %#x", s.PC)
			}
			r.Sites[pc] = SiteBias{Exec: s.Exec, Taken: s.Taken}
		}
		return r, nil
	})
}
