package synth

import (
	"encoding/json"
	"fmt"
	"math"

	"rebalance/internal/isa"
	"rebalance/internal/program"
	"rebalance/internal/rng"
)

// Structural constants of the generated program shape. They participate
// in the honesty accounting below, so changing any of them changes every
// generated stream — bump Version (and the sim cache-key version) if you
// touch them.
const (
	// unitsPerIter is the number of mixture branch sites executed per
	// innermost-loop iteration of a worker function — the granularity at
	// which the requested mixture is quantized.
	unitsPerIter = 10
	// outerTrip is the fixed trip count of the non-innermost loop levels.
	// Its back-edges are taken 2/3 of the time: structural mid-bias mass.
	outerTrip = 3
	// mainWeight repeats the parallel region body per schedule visit.
	mainWeight = 2
	// serialTrip is the serial setup loop's trip count.
	serialTrip = 12
	// serialThenP and coldCallP are the probabilities that the serial
	// slow path and a cold-function call execute. An If's condition is
	// taken to *skip* the then-path, so the guard branches are taken with
	// probability 1-p — either way an extreme rate: structural biased
	// mass.
	serialThenP = 0.05
	coldCallP   = 0.01
	// coldTrip is the trip count of cold functions' single loop level.
	// Cold calls must touch all of a function's text (widening the
	// touched footprint) while contributing so few dynamic instructions
	// that the 99%-dynamic footprint excludes them; a short fixed trip
	// over the full unit sequence does exactly that. Its back-edge is
	// taken 1/2 the time: structural mid mass.
	coldTrip = 2
)

// mainTrips is the parallel region's dispatch-loop phase sequence.
var mainTrips = []int{2, 3, 2}

func meanInts(xs []int) float64 {
	s := 0
	for _, x := range xs {
		s += x
	}
	return float64(s) / float64(len(xs))
}

// masses returns the expected dynamic conditional-branch mass per schedule
// visit, split into the three populations the generator must balance:
//
//	mix    — executions of the explicit mixture sites (assignable),
//	biased — structural executions already in the extreme buckets
//	         (innermost back-edges, cold and serial guards),
//	mid    — structural executions already in the middle buckets
//	         (outer and dispatch-loop back-edges).
//
// All loop models used are deterministic (fixed or phased), so these are
// exact long-run rates, not estimates.
func (p Params) masses() (mix, biased, mid float64) {
	depth := p.LoopDepth
	// Inner iterations per hot-function call: the innermost loop is
	// entered outerTrip^(depth-1) times, each entry running the phased
	// mean.
	innerHot := math.Pow(outerTrip, float64(depth-1)) * meanInts(p.TripCounts)
	eBackMid := 0.0 // outer back-edges: taken 2/3
	for j := 1; j < depth; j++ {
		eBackMid += math.Pow(outerTrip, float64(j))
	}

	h := p.hotFuncs()
	cold := float64(p.Funcs - h)
	// Hot calls per dispatch-loop iteration: one through the indirect
	// dispatcher plus the hot functions beyond the fan-out, directly.
	hotCalls := float64(1 + h - p.IndirectFanout)
	iters := mainWeight * meanInts(mainTrips) // dispatch-loop iterations per visit

	mix = iters * (hotCalls*unitsPerIter*innerHot + coldCallP*cold*unitsPerIter*coldTrip)
	// Biased structure: innermost hot back-edges (taken (T-1)/T >= 0.9)
	// and the cold guards, which run once per iteration.
	biased = iters * (hotCalls*innerHot + cold)
	// Mid structure: outer hot back-edges, cold-function back-edges
	// (taken 1/2), and one dispatch-loop back-edge per iteration.
	mid = iters * (hotCalls*eBackMid + coldCallP*cold*coldTrip + 1)
	// Serial setup region, once per visit: serialTrip guard executions
	// (biased low) and serialTrip back-edge executions (taken 11/12).
	biased += 2 * serialTrip
	return mix, biased, mid
}

// mixture is the per-population assignment for the explicit branch sites.
type mixture struct {
	biased, correlated, noisy float64
}

// mixtureFractions solves for the fractions of explicit mixture sites per
// population such that the whole stream — structural branches included —
// lands on the requested knobs. Unachievable requests (a knob below the
// structural floor its loops imply) fail with a typed error naming the
// floor.
func (p Params) mixtureFractions() (mixture, error) {
	mix, biased, mid := p.masses()
	total := mix + biased + mid
	// An explicit float64(x*y) rounds the product before the sum, which
	// the Go spec forbids fusing into an FMA: every GOARCH (arm64, ppc64le
	// and s390x fuse otherwise) builds the same program. So below and in
	// the generator.
	m := mixture{
		biased:     (float64(p.BiasedFrac*total) - biased) / mix,
		correlated: p.CorrelatedFrac * total / mix,
		noisy:      (float64(p.NoisyFrac*total) - mid) / mix,
	}
	if m.biased < -1e-9 {
		return mixture{}, errf("biased_frac %.3f below the structural floor %.3f (loop back-edges and guards)", p.BiasedFrac, biased/total)
	}
	if m.noisy < -1e-9 {
		return mixture{}, errf("noisy_frac %.3f below the structural floor %.3f (outer loop back-edges)", p.NoisyFrac, mid/total)
	}
	m.biased = math.Max(m.biased, 0)
	m.noisy = math.Max(m.noisy, 0)
	return m, nil
}

// siteKind is one mixture population.
type siteKind int

const (
	kindBiased siteKind = iota
	kindCorrelated
	kindNoisy
)

// assignKinds distributes n explicit sites over the populations by
// deterministic error diffusion: after every prefix, each population's
// allocation is within one site of its exact share. Worker functions all
// consume the same global sequence in order, so per-function compositions
// deviate from the target by at most one site regardless of how dispatch
// weights skew per-function execution counts.
func assignKinds(m mixture, n int) []siteKind {
	targets := [3]float64{m.biased, m.correlated, m.noisy}
	var placed [3]int
	out := make([]siteKind, n)
	for i := 0; i < n; i++ {
		best, bestDeficit := 0, math.Inf(-1)
		for k, t := range targets {
			if deficit := float64(t*float64(i+1)) - float64(placed[k]); deficit > bestDeficit {
				best, bestDeficit = k, deficit
			}
		}
		placed[best]++
		out[i] = siteKind(best)
	}
	return out
}

// gen carries the deterministic generation state.
type gen struct {
	p Params
	r *rng.RNG
	// biasedSites counts constructed biased sites, alternating their
	// dominant direction.
	biasedSites int
}

// block returns a straight block of n instructions with x86-plausible
// sizes (clustered 3-5 bytes with occasional long encodings).
func (g *gen) block(n int) program.Node {
	sizes := make([]uint8, n)
	for i := range sizes {
		sizes[i] = uint8(g.r.Range(2, 6))
		if g.r.Bool(0.08) {
			sizes[i] = uint8(g.r.Range(7, 11))
		}
	}
	return &program.Straight{Block: program.NewBlock(sizes)}
}

// blockN draws a block length around the configured mean.
func (g *gen) blockN() int {
	lo := g.p.BlockLen - g.p.BlockLen/2
	if lo < 1 {
		lo = 1
	}
	return g.r.Range(lo, g.p.BlockLen+g.p.BlockLen/2)
}

func seq(ns ...program.Node) program.Node { return &program.Seq{Nodes: ns} }

func loop(iters program.IterModel, body program.Node) program.Node {
	return &program.Loop{Body: body, Back: &program.Branch{Size: 2}, Iters: iters}
}

func ifThen(beh program.Behavior, then program.Node) program.Node {
	return &program.If{Cond: &program.Branch{Size: 2, Behavior: beh}, Then: then}
}

func call(f *program.Func) program.Node {
	return &program.Call{Site: &program.Branch{Size: 5}, Callee: f}
}

func fn(name string, body program.Node) *program.Func {
	return &program.Func{Name: name, Body: body, Ret: &program.Branch{Size: 1, Kind: isa.KindReturn}}
}

// behavior constructs one mixture site's behavior model.
func (g *gen) behavior(k siteKind) program.Behavior {
	switch k {
	case kindBiased:
		p := g.p.Bias
		if g.biasedSites%2 == 1 {
			p = 1 - p
		}
		g.biasedSites++
		return program.BiasedBehavior{P: p}
	case kindCorrelated:
		// Deterministic in 8-12 bits of global history; the truth-table
		// bias stays mid-range so the site reads as irregular to anything
		// that cannot reach the history.
		return program.CorrelatedBehavior{
			HistBits: uint(8 + g.r.Intn(5)),
			Salt:     g.r.Uint64(),
			Bias:     0.45 + float64(0.1*g.r.Float64()),
		}
	default:
		return program.BiasedBehavior{P: 0.35 + float64(0.3*g.r.Float64())}
	}
}

// workerFunc builds one worker function: a loop nest whose innermost
// iteration runs unitsPerIter mixture units and one leaf call. Hot
// functions run the full LoopDepth nest with the phased trip counts;
// cold functions run one short fixed-trip level, so a rare cold call
// touches all of the function's text while adding almost no dynamic mass.
func (g *gen) workerFunc(name string, hot bool, kinds []siteKind, leaf *program.Func) *program.Func {
	units := make([]program.Node, 0, 2*unitsPerIter+2)
	for _, k := range kinds {
		units = append(units,
			g.block(g.blockN()),
			ifThen(g.behavior(k), g.block(2)),
		)
	}
	units = append(units, call(leaf), g.block(3))
	var body program.Node
	if hot {
		body = loop(program.PhasedIters{Counts: g.p.TripCounts}, seq(units...))
		for d := 1; d < g.p.LoopDepth; d++ {
			body = loop(program.FixedIters{N: outerTrip}, seq(g.block(3), body))
		}
	} else {
		body = loop(program.FixedIters{N: coldTrip}, seq(units...))
	}
	return fn(name, seq(g.block(g.blockN()), body, g.block(3)))
}

// generate synthesizes the pre-layout program for canonical params c,
// returning it with its librarySplit. It must be called with a canonical
// parameter set; Build guarantees that.
func generate(c Params) (*program.Program, int) {
	canon, err := json.Marshal(c)
	if err != nil {
		panic(fmt.Sprintf("synth: marshalling canonical params: %v", err))
	}
	g := &gen{p: c, r: rng.NewFromString(Version + "\x00" + string(canon))}

	frac, err := c.mixtureFractions()
	if err != nil {
		// Canonical checked achievability; reaching here means generate
		// was handed non-canonical params.
		panic(fmt.Sprintf("synth: generate on non-canonical params: %v", err))
	}
	kinds := assignKinds(frac, c.Funcs*unitsPerIter)

	// Leaf functions at the text base: library-style code, so worker
	// calls to them are backward.
	leaves := make([]*program.Func, c.CallFanout)
	for i := range leaves {
		leaves[i] = fn(fmt.Sprintf("leaf_%d", i), g.block(2*c.BlockLen))
	}

	h := c.hotFuncs()
	workers := make([]*program.Func, c.Funcs)
	for i := range workers {
		name := fmt.Sprintf("hot_%d", i)
		if i >= h {
			name = fmt.Sprintf("cold_%d", i-h)
		}
		workers[i] = g.workerFunc(name, i < h, kinds[i*unitsPerIter:(i+1)*unitsPerIter], leaves[i%len(leaves)])
	}
	hot, cold := workers[:h], workers[h:]

	// The dispatch function: a token switch (indirect branch) followed by
	// the indirect call fanning out over the hot set.
	nCases := 4
	cases := make([]program.Node, nCases)
	caseWeights := make([]float64, nCases)
	for i := range cases {
		cases[i] = g.block(2 + g.r.Intn(4))
		caseWeights[i] = 0.5 + g.r.Float64()
	}
	indirect := &program.IndirectCall{
		Site:    &program.Branch{Size: 3},
		Callees: hot[:c.IndirectFanout],
	}
	if c.Dispatch == DispatchPeriodic {
		// A repeating sequence visiting every target at least once.
		pattern := make([]int, 0, 2*c.IndirectFanout)
		for i := 0; i < c.IndirectFanout; i++ {
			pattern = append(pattern, i)
		}
		for i := 0; i < c.IndirectFanout; i++ {
			pattern = append(pattern, g.r.Intn(c.IndirectFanout))
		}
		indirect.Pattern = pattern
	} else {
		weights := make([]float64, c.IndirectFanout)
		for i := range weights {
			weights[i] = 1 / float64(i+1)
		}
		indirect.Weights = weights
	}
	dispatch := fn("dispatch", seq(
		g.block(3),
		&program.Switch{Site: &program.Branch{Size: 3}, Cases: cases, Weights: caseWeights},
		indirect,
		g.block(3),
	))

	// Parallel main region: the dispatch loop calls the dispatcher, the
	// hot tail beyond the indirect fan-out directly, and the cold set
	// behind rarely-taken guards.
	iterBody := []program.Node{call(dispatch)}
	for _, f := range hot[c.IndirectFanout:] {
		iterBody = append(iterBody, call(f))
	}
	for _, f := range cold {
		iterBody = append(iterBody, ifThen(program.BiasedBehavior{P: 1 - coldCallP}, call(f)))
	}
	iterBody = append(iterBody, g.block(3))
	mainBody := seq(
		g.block(g.blockN()),
		loop(program.PhasedIters{Counts: mainTrips}, seq(iterBody...)),
	)

	// Serial setup region: bookkeeping loop, a leaf call, an I/O tick.
	serialBody := seq(
		g.block(g.blockN()),
		loop(program.FixedIters{N: serialTrip}, seq(
			g.block(g.blockN()),
			ifThen(program.BiasedBehavior{P: 1 - serialThenP}, g.block(3)),
		)),
		call(leaves[0]),
		&program.Syscall{Site: &program.Branch{Size: 2}},
		g.block(3),
	)

	funcs := append([]*program.Func(nil), leaves...)
	funcs = append(funcs, workers...)
	funcs = append(funcs, dispatch)

	p := &program.Program{
		Name:  c.Name,
		Funcs: funcs,
		Regions: []*program.Region{
			{Name: "setup", Serial: true, Weight: 1, Body: serialBody},
			{Name: "main", Serial: false, Weight: mainWeight, Body: mainBody},
		},
	}
	return p, len(leaves)
}
