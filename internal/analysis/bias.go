package analysis

import (
	"fmt"
	"strconv"

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

// AppendJSON appends the Figure 2 + Table I artifact per aggregation phase
// to b, plus the raw [serial, parallel] counters behind it — every site's,
// in PC order — so ScanBias rebuilds an identical result.
func (r *BiasResult) AppendJSON(b []byte) ([]byte, error) {
	var buckets [NumPhases][10]float64
	var biased, backward, forward, taken [NumPhases]float64
	for pi, p := range Phases {
		h := r.Histogram(p)
		for k := range buckets[pi] {
			buckets[pi][k] = 100 * h.Fraction(k)
		}
		biased[pi] = 100 * (h.Fraction(0) + h.Fraction(h.Buckets()-1))
		back, fwd := r.TakenDirection(p)
		if back+fwd > 0 {
			backward[pi] = 100 * float64(back) / float64(back+fwd)
			forward[pi] = 100 * float64(fwd) / float64(back+fwd)
		}
		if conds := over(r.Conds, p); conds > 0 {
			taken[pi] = 100 * float64(back+fwd) / float64(conds)
		}
	}
	b = strconv.AppendInt(append(b, `{"sites":`...), int64(len(r.Sites)), 10)
	b = append(b, `,"buckets_pct":[`...)
	for pi := range buckets {
		if pi > 0 {
			b = append(b, ',')
		}
		b = wire.AppendFloats(b, buckets[pi][:]...)
	}
	b = wire.AppendFloats(append(b, `],"biased_pct":`...), biased[:]...)
	b = wire.AppendFloats(append(b, `,"backward_pct":`...), backward[:]...)
	b = wire.AppendFloats(append(b, `,"forward_pct":`...), forward[:]...)
	b = wire.AppendFloats(append(b, `,"taken_pct":`...), taken[:]...)
	b = append(b, `,"counters":{"sites":[`...)
	for i, pc := range sortedKeys(r.Sites) {
		if i > 0 {
			b = append(b, ',')
		}
		s := r.Sites[pc]
		b = strconv.AppendUint(append(b, `{"pc":`...), uint64(pc), 10)
		b = wire.AppendInts(append(b, `,"exec":`...), s.Exec[:]...)
		b = wire.AppendInts(append(b, `,"taken":`...), s.Taken[:]...)
		b = append(b, '}')
	}
	b = wire.AppendInts(append(b, `],"dirs":[`...), r.Dirs[0][:]...)
	b = wire.AppendInts(append(b, ','), r.Dirs[1][:]...)
	b = wire.AppendInts(append(b, `],"conds":`...), r.Conds[:]...)
	return append(b, "}}"...), nil
}

// ScanBias is the one decode path of a BiasResult's canonical JSON
// artifact, read in place from the record that embeds it. Derived figures
// are read as numbers and recomputed on re-encode. A duplicated site PC
// means the artifact was not produced by AppendJSON and is an error.
func ScanBias(sc *wire.Scanner) (*BiasResult, error) {
	r := &BiasResult{Sites: map[isa.Addr]SiteBias{}}
	sc.Open('{').Key("sites").Int()
	sc.Key("buckets_pct").Open('[').SkipFloats(10).SkipFloats(10).SkipFloats(10).Close(']')
	for _, derived := range [...]string{"biased_pct", "backward_pct", "forward_pct", "taken_pct"} {
		sc.Key(derived).SkipFloats(NumPhases)
	}
	sc.Key("counters").Open('{').Key("sites").Open('[')
	for sc.More() {
		var s SiteBias
		pc := isa.Addr(sc.Open('{').Key("pc").Uint())
		sc.Key("exec").Ints(s.Exec[:]).Key("taken").Ints(s.Taken[:]).Close('}')
		if _, dup := r.Sites[pc]; dup {
			sc.Fail(fmt.Errorf("duplicate site pc %#x", uint64(pc)))
		}
		r.Sites[pc] = s
	}
	sc.Close(']').Key("dirs").Open('[').Ints(r.Dirs[0][:]).Ints(r.Dirs[1][:]).Close(']')
	sc.Key("conds").Ints(r.Conds[:])
	return wire.Scanned(sc.Close('}').Close('}'), r)
}
