package bpred

import (
	"fmt"
	"slices"
	"strconv"

	"rebalance/internal/isa"
	"rebalance/internal/stats"
	"rebalance/internal/wire"
)

// Result accumulates the measurements the paper reports for one predictor
// on one workload: mispredictions per kilo-instruction (Figure 5), split by
// serial/parallel phase, and broken down by the actual branch direction —
// not taken, taken backward, taken forward (Figure 6).
type Result struct {
	// Name is the predictor configuration name.
	Name string
	// CostBits is the configuration's hardware storage cost.
	CostBits int
	// Insts counts all dynamic instructions per phase (0 serial, 1
	// parallel); the MPKI denominator.
	Insts stats.Phases
	// Branches counts conditional branches per phase.
	Branches stats.Phases
	// Miss counts mispredictions per phase and actual direction.
	Miss [2][isa.NumDirections]int64
}

// misses returns mispredictions per phase, over every direction.
func (r *Result) misses() stats.Phases {
	var m stats.Phases
	for p := range m {
		for _, n := range r.Miss[p] {
			m[p] += n
		}
	}
	return m
}

// Mispredicts returns total mispredictions over both phases.
func (r *Result) Mispredicts() int64 { return r.misses().Total() }

// MPKI returns mispredictions per kilo-instruction over the whole stream.
func (r *Result) MPKI() float64 { return stats.PerKilo(r.Mispredicts(), r.Insts.Total()) }

// MPKISerial returns MPKI over serial sections only.
func (r *Result) MPKISerial() float64 { return stats.PerKilo(r.misses()[0], r.Insts[0]) }

// MPKIParallel returns MPKI over parallel sections only.
func (r *Result) MPKIParallel() float64 { return stats.PerKilo(r.misses()[1], r.Insts[1]) }

// MPKIByDirection returns the Figure 6 breakdown: the MPKI contribution of
// mispredictions on branches whose actual outcome was the given direction.
func (r *Result) MPKIByDirection(d isa.Direction) float64 {
	return stats.PerKilo(r.Miss[0][d]+r.Miss[1][d], r.Insts.Total())
}

// MissRate returns mispredictions per conditional branch.
func (r *Result) MissRate() float64 { return stats.Ratio(r.Mispredicts(), r.Branches.Total()) }

// Sim drives one or more predictor configurations over a single instruction
// stream, the way the paper's branch-prediction pintool evaluates several in
// one instrumented run. It is a trace.LaneConsumer: each lane's conditional
// runs are compacted once and then walked component-major, so the filtering
// and phase bookkeeping is paid per batch instead of per predictor and each
// component's tables stay hot across the whole batch.
//
// What is walked is a component, not a configuration. A predictor's state is
// a function of its geometry and the (pc, taken) sequence alone, and every
// configuration of one Sim sees the same sequence — so the base of
// L-gshare-small is bit for bit the plain gshare-small beside it, and every
// "L-" loop table is bit for bit every other. A batch walks each distinct
// base once and the one loop table once, each writing a prediction byte per
// record. A walk switches on the component's concrete type once per batch,
// so a built-in predictor's Access is a direct call per branch, not an
// interface call; a Predictor Sim does not know is walked through the
// interface. A configuration's miss counters are composed from those bytes
// the way WithLoop.Access composes one branch: Figure 5's nine configurations
// are six base walks, one loop walk and nine counting loops, and
// configurations with nothing in common take the same path and share
// nothing. Each configuration counts what a lone power-on instance driven
// through Predictor.Access would, however the stream was cut into batches.
//
// The pass computes from each branch's outcome instead of branching on it:
// the compaction, every counter update and all of gshare's and Tournament's
// Access are straight-line code, so a stream the simulated predictors find
// hard does not make the host mispredict as often (see ctrUpdate). TAGE
// branches on its hits and its allocation, the loop table on its tags.
type Sim struct {
	cfgs    []simCfg
	comps   []component // the distinct bases, then the loop table if any overlay
	results []Result
	insts   stats.Phases
	recs    []condRec // the batch's conditional branches, reused across batches
}

// simCfg is one configuration resolved to its components.
type simCfg struct {
	base int  // index into Sim.comps
	loop bool // overlaid by the loop table, the last of Sim.comps
}

// component is one distinct piece of predictor state and its predictions for
// the current batch: 0/1 from a base; from the loop table 0 when it is not
// confident, else 2|taken.
type component struct {
	base Predictor      // nil for the loop table
	loop *LoopPredictor // nil for a base
	out  []uint8
}

// condRec is one conditional branch extracted from a lane.
type condRec struct {
	pc    isa.Addr
	taken uint8 // 0/1, comparable with a prediction byte
	dir   uint8
}

// appendConds appends the lane's conditional branches to recs. It writes a
// record for every run and advances past it only if the run ends in a
// conditional branch, and a record's Figure 6 direction is taken << (Target >=
// PC) — isa's not-taken, taken-backward and taken-forward — so nothing in it
// branches on a run's kind or outcome.
func appendConds(recs []condRec, l *isa.Lane) []condRec {
	runs, n := l.Runs, len(recs)
	recs = slices.Grow(recs, len(runs))[:n+len(runs)]
	for i := range runs {
		r := &runs[i]
		taken := uint8(b2u(r.Taken))
		recs[n] = condRec{pc: r.PC, taken: taken, dir: taken << b2u(r.Target >= r.PC)}
		n += int(b2u(r.Kind.IsConditional()))
	}
	return recs[:n]
}

// NewSim returns a simulator for the given configurations, which it takes
// over: they must be fresh power-on instances, and one whose state another's
// walk stands for is never accessed.
//
// Two bases are one component only if they report equal geometry() — the
// built-in algorithms do, keyed on every parameter that shapes their state
// and on nothing else. Identity is never taken from Name(): two different
// predictors under one name are walked separately, and a Predictor
// implementation Sim does not know is always its own component. Loop tables
// have no parameters (NewLoopPredictor), so all overlays share the first.
func NewSim(preds ...Predictor) *Sim {
	s := &Sim{cfgs: make([]simCfg, len(preds)), results: make([]Result, len(preds))}
	index := map[any]int{} // geometry, or the position of a base that reports none
	var loop *LoopPredictor
	for i, p := range preds {
		s.results[i].Name = p.Name()
		s.results[i].CostBits = p.CostBits()
		if w, ok := p.(*WithLoop); ok {
			p, s.cfgs[i].loop = w.base, true
			if loop == nil {
				loop = w.loop
			}
		}
		key := any(i)
		if g, ok := p.(interface{ geometry() string }); ok {
			key = g.geometry()
		}
		at, ok := index[key]
		if !ok {
			at, index[key] = len(s.comps), len(s.comps)
			s.comps = append(s.comps, component{base: p})
		}
		s.cfgs[i].base = at
	}
	if loop != nil {
		s.comps = append(s.comps, component{loop: loop})
	}
	return s
}

// Reset restores the simulator to the power-on state NewSim built, in
// place: every component's tables and histories and every configuration's
// counters zero, the buffers it has grown kept. Its predictors must be
// built-in configurations (NewByName's); Reset panics on any other.
func (s *Sim) Reset() {
	for _, c := range s.comps {
		if c.loop != nil {
			c.loop.reset()
			continue
		}
		r, ok := c.base.(interface{ reset() })
		if !ok {
			panic(fmt.Sprintf("bpred: Sim.Reset of a %T, which has no power-on reset", c.base))
		}
		r.reset()
	}
	for i := range s.results {
		s.results[i] = Result{Name: s.results[i].Name, CostBits: s.results[i].CostBits}
	}
	s.insts = stats.Phases{}
}

// walk runs the component over a batch's conditional branches, writing one
// prediction byte per record (see Sim for why it switches on the type).
func (c *component) walk(recs []condRec) {
	if cap(c.out) < len(recs) {
		c.out = make([]uint8, len(recs))
	}
	out := c.out[:len(recs)]
	c.out = out
	switch p := c.base.(type) {
	case nil:
		for j, r := range recs {
			pred, confident := c.loop.Access(r.pc, r.taken != 0)
			out[j] = uint8(b2u(confident)<<1 | b2u(confident && pred))
		}
	case *TAGE:
		for j, r := range recs {
			out[j] = uint8(b2u(p.Access(r.pc, r.taken != 0)))
		}
	case *Tournament:
		for j, r := range recs {
			out[j] = uint8(b2u(p.Access(r.pc, r.taken != 0)))
		}
	case *Gshare:
		for j, r := range recs {
			out[j] = uint8(b2u(p.Access(r.pc, r.taken != 0)))
		}
	default:
		for j, r := range recs {
			out[j] = uint8(b2u(p.Access(r.pc, r.taken != 0)))
		}
	}
}

// compose counts the batch's predictions into every configuration's counters:
// the base's prediction, overridden where the configuration has the overlay
// and the loop table was confident.
func (s *Sim) compose(recs []condRec, p int) {
	for i, c := range s.cfgs {
		base := s.comps[c.base].out[:len(recs)]
		var miss [4]int64 // by direction, padded so the index needs no bounds check
		if !c.loop {
			for j, r := range recs {
				miss[r.dir&3] += int64(base[j] ^ r.taken)
			}
		} else {
			loop := s.comps[len(s.comps)-1].out[:len(recs)]
			for j, r := range recs {
				pred := base[j]
				if l := loop[j]; l != 0 {
					pred = l & 1
				}
				miss[r.dir&3] += int64(pred ^ r.taken)
			}
		}
		r := &s.results[i]
		r.Branches[p] += int64(len(recs))
		for d := range r.Miss[p] {
			r.Miss[p][d] += miss[d]
		}
	}
}

// ConsumeLane implements trace.LaneConsumer: compact, walk each component,
// compose.
func (s *Sim) ConsumeLane(l *isa.Lane) {
	s.insts[l.Phase] += int64(l.Insts)
	s.recs = appendConds(s.recs[:0], l)
	if len(s.recs) == 0 {
		return
	}
	for i := range s.comps {
		s.comps[i].walk(s.recs)
	}
	s.compose(s.recs, l.Phase)
}

// Merge accumulates another *Result's counters into r, folding per-seed
// shards into one per-configuration aggregate. A zero receiver adopts the
// other's identity; otherwise the configurations must match. The signature
// satisfies the sim result contract (Merge(any) error) without importing
// the sim package.
func (r *Result) Merge(other any) error {
	o, ok := other.(*Result)
	if !ok {
		return fmt.Errorf("bpred: cannot merge %T into *bpred.Result", other)
	}
	if r.Name == "" {
		r.Name, r.CostBits = o.Name, o.CostBits
	} else if o.Name != "" && o.Name != r.Name {
		return fmt.Errorf("bpred: cannot merge result for %q into %q", o.Name, r.Name)
	}
	r.Insts.Add(o.Insts)
	r.Branches.Add(o.Branches)
	for p := range r.Miss {
		for d := range r.Miss[p] {
			r.Miss[p][d] += o.Miss[p][d]
		}
	}
	return nil
}

// AppendJSON appends the result's canonical JSON artifact to b: the raw
// counters (exact, mergeable by consumers) plus the derived paper metrics,
// which are pure functions of the counters, so ScanResult rebuilds a Result
// from the counters alone and re-encoding yields identical bytes.
// Array-valued counters are indexed [serial, parallel]; miss rows are
// indexed [not-taken, taken-backward, taken-forward].
func (r *Result) AppendJSON(b []byte) ([]byte, error) {
	b = wire.AppendString(append(b, `{"name":`...), r.Name)
	b = strconv.AppendInt(append(b, `,"cost_bits":`...), int64(r.CostBits), 10)
	b = wire.AppendInts(append(b, `,"insts":`...), r.Insts[:]...)
	b = wire.AppendInts(append(b, `,"branches":`...), r.Branches[:]...)
	b = wire.AppendInts(append(b, `,"miss":[`...), r.Miss[0][:]...)
	b = wire.AppendInts(append(b, ','), r.Miss[1][:]...)
	b = wire.AppendFloat(append(b, `],"mpki":`...), r.MPKI())
	b = wire.AppendFloat(append(b, `,"mpki_serial":`...), r.MPKISerial())
	b = wire.AppendFloat(append(b, `,"mpki_parallel":`...), r.MPKIParallel())
	b = wire.AppendFloat(append(b, `,"miss_rate":`...), r.MissRate())
	b = wire.AppendFloats(append(b, `,"mpki_by_direction":`...), r.MPKIByDirection(isa.DirNotTaken),
		r.MPKIByDirection(isa.DirTakenBackward), r.MPKIByDirection(isa.DirTakenForward))
	return append(b, '}'), nil
}

// ScanResult is the one decode path of a Result's canonical JSON artifact —
// the other half of the wire contract, so a coordinator can fold shards
// produced by a remote worker — read in place from the record that embeds
// it. Derived metrics are read as numbers and dropped: re-encoding
// recomputes them from the raw counters.
func ScanResult(sc *wire.Scanner) (*Result, error) {
	r := &Result{}
	r.Name = sc.Open('{').Key("name").String()
	r.CostBits = sc.Key("cost_bits").HostInt()
	sc.Key("insts").Ints(r.Insts[:]).Key("branches").Ints(r.Branches[:])
	sc.Key("miss").Open('[').Ints(r.Miss[0][:]).Ints(r.Miss[1][:]).Close(']')
	sc.SkipKeys("mpki", "mpki_serial", "mpki_parallel", "miss_rate").Key("mpki_by_direction").SkipFloats(isa.NumDirections)
	return wire.Scanned(sc.Close('}'), r)
}

// Results returns the per-predictor results with instruction counts filled
// in.
func (s *Sim) Results() []Result {
	out := make([]Result, len(s.results))
	copy(out, s.results)
	for i := range out {
		out[i].Insts = s.insts
	}
	return out
}

// standardConfigs is the nine Figure 5 configurations in the figure's
// order; each new returns a fresh power-on instance whose Name() is name.
var standardConfigs = []struct {
	name string
	new  func() Predictor
}{
	{"gshare-big", func() Predictor { return NewGshareBig() }},
	{"tournament-big", func() Predictor { return NewTournamentBig() }},
	{"tage-big", func() Predictor { return NewTAGEBig() }},
	{"gshare-small", func() Predictor { return NewGshareSmall() }},
	{"tournament-small", func() Predictor { return NewTournamentSmall() }},
	{"tage-small", func() Predictor { return NewTAGESmall() }},
	{"L-gshare-small", func() Predictor { return NewWithLoop(NewGshareSmall()) }},
	{"L-tournament-small", func() Predictor { return NewWithLoop(NewTournamentSmall()) }},
	{"L-tage-small", func() Predictor { return NewWithLoop(NewTAGESmall()) }},
}

// StandardConfigs returns fresh instances of the nine Figure 5 predictor
// configurations, in the figure's order.
func StandardConfigs() []Predictor {
	out := make([]Predictor, len(standardConfigs))
	for i, c := range standardConfigs {
		out[i] = c.new()
	}
	return out
}

// ConfigNames returns the configuration names run specifications may
// name, in figure order.
func ConfigNames() []string {
	out := make([]string, len(standardConfigs))
	for i, c := range standardConfigs {
		out[i] = c.name
	}
	return out
}

// lookup returns the named configuration's constructor, or nil.
func lookup(name string) func() Predictor {
	for _, c := range standardConfigs {
		if c.name == name {
			return c.new
		}
	}
	return nil
}

// HasConfig reports whether name is a configuration, without instantiating
// it — spec validation uses this so checking a name does not allocate the
// predictor's tables.
func HasConfig(name string) bool { return lookup(name) != nil }

// NewByName returns a fresh (power-on state) instance of the named
// configuration.
func NewByName(name string) (Predictor, error) {
	f := lookup(name)
	if f == nil {
		return nil, fmt.Errorf("bpred: unknown predictor config %q (have %v)", name, ConfigNames())
	}
	return f(), nil
}
