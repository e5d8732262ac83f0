package bpred

import (
	"encoding/json"
	"fmt"
	"slices"

	"rebalance/internal/isa"
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
	Insts [2]int64
	// Branches counts conditional branches per phase.
	Branches [2]int64
	// Miss counts mispredictions per phase and actual direction.
	Miss [2][isa.NumDirections]int64
}

// Mispredicts returns total mispredictions over both phases.
func (r *Result) Mispredicts() int64 {
	var m int64
	for p := 0; p < 2; p++ {
		for d := 0; d < isa.NumDirections; d++ {
			m += r.Miss[p][d]
		}
	}
	return m
}

// MPKI returns mispredictions per kilo-instruction over the whole stream.
func (r *Result) MPKI() float64 { return r.mpkiPhases(0, 1) }

// MPKISerial returns MPKI over serial sections only.
func (r *Result) MPKISerial() float64 { return r.mpkiPhases(0) }

// MPKIParallel returns MPKI over parallel sections only.
func (r *Result) MPKIParallel() float64 { return r.mpkiPhases(1) }

func (r *Result) mpkiPhases(phases ...int) float64 {
	var insts, miss int64
	for _, p := range phases {
		insts += r.Insts[p]
		for d := 0; d < isa.NumDirections; d++ {
			miss += r.Miss[p][d]
		}
	}
	if insts == 0 {
		return 0
	}
	return 1000 * float64(miss) / float64(insts)
}

// MPKIByDirection returns the Figure 6 breakdown: the MPKI contribution of
// mispredictions on branches whose actual outcome was the given direction.
func (r *Result) MPKIByDirection(d isa.Direction) float64 {
	insts := r.Insts[0] + r.Insts[1]
	if insts == 0 {
		return 0
	}
	miss := r.Miss[0][d] + r.Miss[1][d]
	return 1000 * float64(miss) / float64(insts)
}

// MissRate returns mispredictions per conditional branch.
func (r *Result) MissRate() float64 {
	b := r.Branches[0] + r.Branches[1]
	if b == 0 {
		return 0
	}
	return float64(r.Mispredicts()) / float64(b)
}

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
	insts   [2]int64
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
	for p := 0; p < 2; p++ {
		r.Insts[p] += o.Insts[p]
		r.Branches[p] += o.Branches[p]
		for d := 0; d < isa.NumDirections; d++ {
			r.Miss[p][d] += o.Miss[p][d]
		}
	}
	return nil
}

// resultWire is the canonical JSON shape of a Result: the raw counters
// (exact, mergeable by consumers) plus the derived paper metrics. The
// derived fields are pure functions of the counters, so NewTarget
// reconstructs a Result from the counters alone and re-encoding yields
// byte-identical JSON.
type resultWire struct {
	Name         string                      `json:"name"`
	CostBits     int                         `json:"cost_bits"`
	Insts        [2]int64                    `json:"insts"`
	Branches     [2]int64                    `json:"branches"`
	Miss         [2][isa.NumDirections]int64 `json:"miss"`
	MPKI         float64                     `json:"mpki"`
	MPKISerial   float64                     `json:"mpki_serial"`
	MPKIParallel float64                     `json:"mpki_parallel"`
	MissRate     float64                     `json:"miss_rate"`
	MPKIByDir    [isa.NumDirections]float64  `json:"mpki_by_direction"`
}

// EncodeJSON renders the result as its canonical JSON artifact.
// Array-valued counters are indexed [serial, parallel]; miss rows are
// indexed [not-taken, taken-backward, taken-forward].
func (r *Result) EncodeJSON() ([]byte, error) {
	return json.Marshal(resultWire{
		Name:         r.Name,
		CostBits:     r.CostBits,
		Insts:        r.Insts,
		Branches:     r.Branches,
		Miss:         r.Miss,
		MPKI:         r.MPKI(),
		MPKISerial:   r.MPKISerial(),
		MPKIParallel: r.MPKIParallel(),
		MissRate:     r.MissRate(),
		MPKIByDir: [isa.NumDirections]float64{
			r.MPKIByDirection(isa.DirNotTaken),
			r.MPKIByDirection(isa.DirTakenBackward),
			r.MPKIByDirection(isa.DirTakenForward),
		},
	})
}

// NewTarget is the one decode path of a Result's canonical JSON artifact —
// the other half of the wire contract, so a coordinator can fold shards
// produced by a remote worker — as a wire.Target: a document that embeds
// the artifact (a shard record) parses it in the same pass as itself, and
// wire.Decode parses it alone. Derived metrics are ignored and recomputed
// from the raw counters on re-encode.
func NewTarget() (ptr any, build func() (*Result, error)) {
	return wire.Target(func(w *resultWire) (*Result, error) {
		return &Result{Name: w.Name, CostBits: w.CostBits, Insts: w.Insts, Branches: w.Branches, Miss: w.Miss}, nil
	})
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
