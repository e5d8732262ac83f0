// Package workload synthesizes the benchmark program models the experiment
// drivers run. Per the substitution rule in DESIGN.md, each workload is a
// structured synthetic program whose stream statistics (branch mix, bias
// distribution, block lengths, footprints) are shaped after the populations
// the paper measures on real HPC proxy apps and SPEC codes; the models are
// deterministic, laid out, and validated, ready for trace.Compile.
//
// Two profiles ship, and they are the whole set of workload names; any
// other scenario travels as inline synth/v1 parameters (package synth):
//
//   - "comd-lite": an HPC timestep code in the style of CoMD — serial setup
//     between wide parallel force/neighbor kernels, long unrolled basic
//     blocks, strongly biased guard branches, constant- and phased-trip
//     loops, and a small hot instruction footprint.
//   - "xalan-lite": an irregular, dispatch-heavy profile in the style of
//     xalancbmk — switch-based token dispatch, patterned virtual calls,
//     history-correlated and noisy branches, short blocks, and a larger
//     touched footprint.
//
// Between them the two programs exercise every construct of the program
// model (nested loops, if/else both ways, direct and indirect calls with
// both pattern and weighted dispatch, switches, syscalls), which is exactly
// what the compiled-versus-reference equivalence tests need.
package workload

import (
	"fmt"

	"rebalance/internal/isa"
	"rebalance/internal/program"
	"rebalance/internal/rng"
)

// builtins is the two profiles, in listing order. Each build synthesizes
// the workload's program model (pre-layout) and returns it with its
// librarySplit (see program.Layout); builds are deterministic, so the same
// name always produces an identical program.
var builtins = []struct {
	name  string
	build func() (*program.Program, int)
}{
	{"comd-lite", buildCoMDLite},
	{"xalan-lite", buildXalanLite},
}

// Names lists the workload models in a fixed order, comd-lite first.
// Drivers that default to "all workloads" (rebalance-bench, /v1/workloads
// listings) inherit it.
func Names() []string {
	out := make([]string, len(builtins))
	for i, b := range builtins {
		out[i] = b.name
	}
	return out
}

// lookup returns the named workload's build, or nil.
func lookup(name string) func() (*program.Program, int) {
	for _, b := range builtins {
		if b.name == name {
			return b.build
		}
	}
	return nil
}

// Has reports whether name is a workload model, without building it —
// spec validation uses this so checking a name costs nothing.
func Has(name string) bool { return lookup(name) != nil }

// Build synthesizes, lays out, and validates the named workload. The same
// name always produces an identical program.
func Build(name string) (*program.Program, error) {
	build := lookup(name)
	if build == nil {
		return nil, fmt.Errorf("workload: unknown workload %q (have %v)", name, Names())
	}
	p, librarySplit := build()
	if err := program.Layout(p, librarySplit); err != nil {
		return nil, err
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("workload %q: %w", name, err)
	}
	return p, nil
}

// MustBuild is Build for tests and benchmarks; it panics on error.
func MustBuild(name string) *program.Program {
	p, err := Build(name)
	if err != nil {
		panic(err)
	}
	return p
}

// builder carries the deterministic RNG that shapes instruction sizes.
type builder struct {
	r *rng.RNG
}

// block returns a straight block of n instructions with x86-plausible sizes.
func (b *builder) block(n int) program.Node {
	sizes := make([]uint8, n)
	for i := range sizes {
		// Cluster around 3-5 bytes with occasional long encodings, matching
		// the average x86-64 instruction length of ~4 bytes.
		sizes[i] = uint8(b.r.Range(2, 6))
		if b.r.Bool(0.08) {
			sizes[i] = uint8(b.r.Range(7, 11))
		}
	}
	return &program.Straight{Block: program.NewBlock(sizes)}
}

func seq(ns ...program.Node) program.Node { return &program.Seq{Nodes: ns} }

func loop(iters program.IterModel, body program.Node) program.Node {
	return &program.Loop{Body: body, Back: &program.Branch{Size: 2}, Iters: iters}
}

func ifThen(beh program.Behavior, then program.Node) program.Node {
	return &program.If{Cond: &program.Branch{Size: 2, Behavior: beh}, Then: then}
}

func ifElse(beh program.Behavior, then, els program.Node) program.Node {
	return &program.If{
		Cond:     &program.Branch{Size: 2, Behavior: beh},
		Then:     then,
		Else:     els,
		SkipJump: &program.Branch{Size: 2},
	}
}

func call(f *program.Func) program.Node {
	return &program.Call{Site: &program.Branch{Size: 5}, Callee: f}
}

func fn(name string, body program.Node) *program.Func {
	return &program.Func{Name: name, Body: body, Ret: &program.Branch{Size: 1, Kind: isa.KindReturn}}
}

// buildCoMDLite models a molecular-dynamics timestep: a serial bookkeeping
// region and heavily weighted parallel kernels dominated by long blocks and
// well-structured loops.
func buildCoMDLite() (*program.Program, int) {
	b := &builder{r: rng.NewFromString("comd-lite")}

	// Library-style leaf kernels placed at the bottom of the text segment so
	// calls to them are backward.
	expApprox := fn("exp_approx", seq(
		b.block(9),
		ifThen(program.BiasedBehavior{P: 0.02}, b.block(7)), // range clamp, almost never
		b.block(6),
	))
	dot3 := fn("dot3", b.block(11))

	// Several specialized force kernels (one per potential/cell type, the
	// way template instantiation and manual specialization multiply HPC hot
	// code): same structure, distinct code addresses, so the instruction
	// footprint and BTB/I-cache pressure resemble the paper's measurements.
	forceKernels := make([]*program.Func, 8)
	for i := range forceKernels {
		forceKernels[i] = fn(fmt.Sprintf("force_kernel_%d", i), seq(
			b.block(6),
			// Outer loop over cells: trip count varies with the decomposition.
			loop(program.UniformIters{Lo: 12, Hi: 20}, seq(
				b.block(8),
				// Inner neighbor loop: fixed unrolled trip count, long blocks —
				// the loop-predictor-friendly case.
				loop(program.FixedIters{N: 14 + i%3}, seq(
					b.block(18),
					call(dot3),
					ifThen(program.BiasedBehavior{P: 0.02 + 0.01*float64(i)}, seq( // cutoff test
						b.block(5),
						call(expApprox),
					)),
					b.block(12),
				)),
				ifElse(program.PatternBehavior{Pattern: []bool{true, false}}, // boundary cell alternation
					b.block(7),
					b.block(4)),
			)),
			b.block(5),
		))
	}

	neighborUpdates := make([]*program.Func, 3)
	for i := range neighborUpdates {
		neighborUpdates[i] = fn(fmt.Sprintf("neighbor_update_%d", i), seq(
			b.block(7),
			loop(program.PhasedIters{Counts: []int{24, 24, 24, 40}}, seq(
				b.block(13),
				ifThen(program.BiasedBehavior{P: 0.5}, b.block(6)), // data-dependent sort branch
			)),
		))
	}

	reduceStats := fn("reduce_stats", seq(
		b.block(8),
		loop(program.FixedIters{N: 8}, b.block(10)),
	))

	funcs := []*program.Func{expApprox, dot3}
	funcs = append(funcs, forceKernels...)
	funcs = append(funcs, neighborUpdates...)
	funcs = append(funcs, reduceStats)

	kernelCalls := []program.Node{b.block(5)}
	for i, f := range forceKernels {
		kernelCalls = append(kernelCalls, call(f))
		if i%3 == 2 {
			kernelCalls = append(kernelCalls, call(neighborUpdates[i/3]))
		}
	}
	kernelCalls = append(kernelCalls, b.block(6))

	p := &program.Program{
		Name:  "comd-lite",
		Funcs: funcs,
		Regions: []*program.Region{
			{
				Name:   "serial-setup",
				Serial: true,
				Weight: 1,
				Body: seq(
					b.block(10),
					loop(program.FixedIters{N: 20}, seq(
						b.block(9),
						ifThen(program.BiasedBehavior{P: 0.1}, b.block(5)),
					)),
					call(reduceStats),
					&program.Syscall{Site: &program.Branch{Size: 2}}, // MPI/IO tick
					b.block(4),
				),
			},
			{
				Name:   "parallel-force",
				Serial: false,
				Weight: 6,
				Body:   seq(kernelCalls...),
			},
		},
	}
	return p, 2 // expApprox and dot3 are "library" code at the segment base
}

// buildXalanLite models an irregular transformation engine: token dispatch
// through switches, patterned virtual calls, short blocks, and branches
// that only long-history predictors can learn.
func buildXalanLite() (*program.Program, int) {
	b := &builder{r: rng.NewFromString("xalan-lite")}

	internPool := fn("intern_pool", seq(
		b.block(7),
		ifThen(program.BiasedBehavior{P: 0.12}, b.block(9)), // hash-miss slow path
	))

	// A dozen node handlers (element, text, attribute, comment, ... the way
	// a DOM/XSLT engine's vtables fan out): three structural templates,
	// each instantiated with distinct blocks and behavior parameters so the
	// touched footprint is SPEC-INT-like rather than HPC-like.
	handlers := make([]*program.Func, 24)
	for i := range handlers {
		name := fmt.Sprintf("handle_node_%d", i)
		switch i % 3 {
		case 0:
			handlers[i] = fn(name, seq(
				b.block(8),
				ifElse(program.CorrelatedBehavior{HistBits: 8 + uint(i%5), Salt: 0x5eed0001 + uint64(i), Bias: 0.4},
					b.block(11),
					b.block(13)),
				b.block(9),
			))
		case 1:
			handlers[i] = fn(name, seq(
				b.block(7),
				loop(program.UniformIters{Lo: 2, Hi: 9}, b.block(8)),
				b.block(12),
			))
		default:
			handlers[i] = fn(name, seq(
				b.block(9),
				ifThen(program.MixedBehavior{
					Base:       program.CorrelatedBehavior{HistBits: 12, Salt: 0xbeef42 * uint64(i+1), Bias: 0.55},
					NoiseP:     0.08,
					NoiseTaken: 0.5,
				}, b.block(10)),
				b.block(8),
			))
		}
	}

	// Two dispatch routines (parse-side and transform-side), each a token
	// switch followed by patterned virtual dispatch: predictable for an
	// indirect-capable BTB, opaque to direction predictors.
	makeDispatch := func(di int) *program.Func {
		cases := make([]program.Node, 6)
		weights := []float64{0.3, 0.24, 0.18, 0.14, 0.09, 0.05}
		for k := range cases {
			switch k % 3 {
			case 0:
				cases[k] = seq(b.block(7), call(internPool))
			case 1:
				cases[k] = seq(b.block(5), ifThen(program.BiasedBehavior{P: 0.9}, b.block(6)))
			default:
				cases[k] = b.block(9)
			}
		}
		h := handlers[di*12:]
		return fn(fmt.Sprintf("dispatch_token_%d", di), seq(
			b.block(3),
			&program.Switch{
				Site:    &program.Branch{Size: 3},
				Cases:   cases,
				Weights: weights,
			},
			&program.IndirectCall{
				Site:    &program.Branch{Size: 3},
				Callees: []*program.Func{h[0], h[1], h[2], h[3], h[4], h[5]},
				Pattern: []int{0, 1, 0, 2, 4, 1, 3, 5, 0, 2},
			},
			b.block(4),
		))
	}
	dispatchParse := makeDispatch(0)
	dispatchTransform := makeDispatch(1)

	flushOutput := fn("flush_output", seq(
		b.block(6),
		loop(program.UniformIters{Lo: 3, Hi: 6}, b.block(7)),
		&program.Syscall{Site: &program.Branch{Size: 2}},
	))

	funcs := []*program.Func{internPool}
	funcs = append(funcs, handlers...)
	funcs = append(funcs, dispatchParse, dispatchTransform, flushOutput)

	p := &program.Program{
		Name:  "xalan-lite",
		Funcs: funcs,
		Regions: []*program.Region{
			{
				Name:   "parse",
				Serial: true,
				Weight: 2,
				Body: seq(
					b.block(5),
					loop(program.UniformIters{Lo: 30, Hi: 60}, seq(
						call(dispatchParse),
						ifThen(program.BiasedBehavior{P: 0.25}, b.block(5)),
					)),
					call(flushOutput),
				),
			},
			{
				Name:   "transform",
				Serial: false,
				Weight: 3,
				Body: seq(
					b.block(4),
					loop(program.PhasedIters{Counts: []int{50, 35, 65}}, seq(
						call(dispatchTransform),
						// Weighted (aperiodic) virtual dispatch.
						&program.IndirectCall{
							Site:    &program.Branch{Size: 3},
							Callees: []*program.Func{handlers[0], handlers[5]},
							Weights: []float64{0.7, 0.3},
						},
						b.block(6),
					)),
				),
			},
		},
	}
	return p, 1 // internPool sits at the segment base as "library" code
}
