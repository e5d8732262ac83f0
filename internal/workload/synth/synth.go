// Package synth is the parameterized synthetic-workload generator: a
// declarative synth/v1 parameter set describes a workload's stream
// statistics — the branch-bias mixture, basic-block length, loop nesting
// and trip-count phases, call fan-out and dispatch pattern, and the
// hot-versus-cold instruction footprint split — and Build deterministically
// synthesizes a program.Program realizing them.
//
// The two hand-built profiles in package workload pin the paper's measured
// applications; synth opens the workload axis the way the predictor and
// geometry axes are already open: a scenario is data. A Params value
// travels inline through sim.Spec and sim.ShardSpec, over the /v1/shards
// worker protocol, and into the shard content address, so remote workers
// rebuild the exact same program and caches never alias two scenarios.
//
// # Canonicalization
//
// Two parameter sets describe the same scenario exactly when their
// canonical forms are equal: Canonical fills every defaulted knob with its
// concrete value, clamps the dependent ones (indirect fan-out cannot
// exceed the hot-function count), and validates the rest with typed
// errors (all wrapping ErrParams). Building from equal canonical params
// produces byte-identical programs — the generator draws every structural
// choice from an RNG seeded with the canonical JSON, so the canonical form
// is the program's identity.
//
// # Generator honesty
//
// The knobs are promises about the *dynamic stream*, not just the static
// program. Structural branches the program cannot avoid — loop back-edges,
// cold-path guards — have their own biases, so the generator solves for
// the mixture it must assign to the explicit branch sites such that the
// whole stream (structure included) lands on the requested fractions.
// Parameter sets whose mixture lies below the structural floor (e.g. a
// biased_frac smaller than the back-edge mass the loops already
// contribute) are rejected with a typed error naming the floor. The
// statistical property tests in this package hold the generator to those
// promises.
package synth

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"

	"rebalance/internal/program"
)

// Version is the parameter-grammar version. It participates in the shard
// content address through the canonical params, so a semantic change to
// the generator must bump it (and the sim cache-key version).
const Version = "synth/v1"

// ErrParams wraps every parameter-validation failure, so callers (the sim
// spec layer, the bench flag parser) can map bad knobs to their own
// invalid-input classes without string matching.
var ErrParams = errors.New("synth: invalid params")

func errf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrParams, fmt.Sprintf(format, args...))
}

// Params is the synth/v1 parameter set. The zero value of every field
// except Name selects the documented default; Canonical makes the
// defaults explicit. Fields are wire-stable: they are carried inline in
// sim specs and folded into shard content addresses.
type Params struct {
	// Name addresses the scenario everywhere a workload is named: spec
	// workload lists, shard records, reports. Lowercase [a-z0-9._-],
	// starting alphanumeric, at most 64 bytes. A name that collides with
	// a built-in workload is rejected by the sim layer (ambiguous
	// addressing).
	Name string `json:"name"`
	// Seed varies the generator's structural choices (block sizes,
	// behavior parameters, dispatch patterns) without touching the
	// declared statistics. Distinct from the per-shard stream seed.
	Seed uint64 `json:"seed,omitempty"`

	// BiasedFrac, CorrelatedFrac, and NoisyFrac are the target fractions
	// of dynamic conditional branches that are strongly biased (taken or
	// not-taken at least 90% of the time), history-correlated
	// (deterministic in recent global history), and irregular
	// (near-50/50 noise). They must sum to 1; all three zero selects the
	// default mixture 0.70/0.20/0.10.
	BiasedFrac     float64 `json:"biased_frac,omitempty"`
	CorrelatedFrac float64 `json:"correlated_frac,omitempty"`
	NoisyFrac      float64 `json:"noisy_frac,omitempty"`
	// Bias is the dominant-direction probability of the strongly biased
	// sites; sites alternate between taken-bias and not-taken-bias. In
	// [0.9, 1] so biased sites land in the distribution's extreme
	// buckets. Default 0.95.
	Bias float64 `json:"bias,omitempty"`

	// BlockLen is the mean basic-block length in instructions; block
	// sizes are drawn uniformly from [BlockLen/2, 3*BlockLen/2]. In
	// [1, 64], default 8.
	BlockLen int `json:"block_len,omitempty"`

	// LoopDepth is the loop-nest depth of every worker function. The
	// innermost level follows TripCounts; enclosing levels run short
	// fixed trips. In [1, 4], default 2.
	LoopDepth int `json:"loop_depth,omitempty"`
	// TripCounts is the repeating trip-count phase sequence of the
	// innermost loops. 1-8 phases, each in [2, 1024], with mean >= 10 so
	// the back-edges are honestly classifiable as biased sites. Default
	// [16, 16, 24].
	TripCounts []int `json:"trip_counts,omitempty"`

	// Funcs is the number of worker functions. In [1, 64], default 8.
	Funcs int `json:"funcs,omitempty"`
	// CallFanout is the direct-call fan-out: the number of distinct leaf
	// functions (laid out as library code at the text base) that worker
	// functions call. In [1, 8], default 2.
	CallFanout int `json:"call_fanout,omitempty"`
	// IndirectFanout is the number of distinct targets of the dispatch
	// function's indirect call. In [1, 16], clamped to the hot-function
	// count, default 4.
	IndirectFanout int `json:"indirect_fanout,omitempty"`
	// Dispatch selects the indirect-dispatch pattern: "periodic" (a
	// repeating target sequence a BTB can learn) or "weighted"
	// (aperiodic weighted selection). Default "periodic".
	Dispatch string `json:"dispatch,omitempty"`

	// HotFrac is the fraction of worker functions in the hot set, called
	// on every main-loop iteration; the rest are cold, guarded by rarely
	// taken branches, so they widen the touched footprint without moving
	// the 99%-dynamic footprint. In (0, 1], default 0.75.
	HotFrac float64 `json:"hot_frac,omitempty"`
}

// Dispatch pattern names.
const (
	DispatchPeriodic = "periodic"
	DispatchWeighted = "weighted"
)

// Default knob values, exported through Defaults.
const (
	defaultBiasedFrac     = 0.70
	defaultCorrelatedFrac = 0.20
	defaultNoisyFrac      = 0.10
	defaultBias           = 0.95
	defaultBlockLen       = 8
	defaultLoopDepth      = 2
	defaultFuncs          = 8
	defaultCallFanout     = 2
	defaultIndirectFanout = 4
	defaultHotFrac        = 0.75
)

func defaultTripCounts() []int { return []int{16, 16, 24} }

// Defaults returns the canonical default parameter set under an example
// name — the documented baseline every sweep varies from.
func Defaults() Params {
	c, err := Params{Name: "synth-defaults"}.Canonical()
	if err != nil {
		panic(err) // the defaults validate by construction
	}
	return c
}

// validName reports whether s is a legal scenario name: lowercase
// alphanumerics, dots, underscores, and dashes, starting alphanumeric,
// at most 64 bytes. The charset is the intersection of what flags, URLs,
// JSON, and cache-key material all pass through unescaped.
func validName(s string) bool {
	if len(s) == 0 || len(s) > 64 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= '0' && c <= '9':
		case c == '.' || c == '_' || c == '-':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// Canonical validates p and returns its canonical form: every defaulted
// knob made explicit, dependent knobs clamped, slices copied. Equal
// scenarios have equal canonical forms, and the canonical form is what
// enters the shard content address and seeds the generator. Every failure
// wraps ErrParams.
func (p Params) Canonical() (Params, error) {
	c := p
	c.TripCounts = append([]int(nil), p.TripCounts...)

	if !validName(c.Name) {
		return Params{}, errf("name %q must be 1-64 bytes of [a-z0-9._-], starting alphanumeric", c.Name)
	}
	if c.BiasedFrac == 0 && c.CorrelatedFrac == 0 && c.NoisyFrac == 0 {
		c.BiasedFrac, c.CorrelatedFrac, c.NoisyFrac = defaultBiasedFrac, defaultCorrelatedFrac, defaultNoisyFrac
	}
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"biased_frac", c.BiasedFrac},
		{"correlated_frac", c.CorrelatedFrac},
		{"noisy_frac", c.NoisyFrac},
	} {
		// Each range check is written to fail for NaN as well (every
		// comparison with NaN is false), so a non-finite knob is rejected
		// here rather than reaching CanonicalJSON, which cannot encode it.
		if !(f.v >= 0 && f.v <= 1) {
			return Params{}, errf("%s %v outside [0, 1]", f.name, f.v)
		}
	}
	if sum := c.BiasedFrac + c.CorrelatedFrac + c.NoisyFrac; math.Abs(sum-1) > 1e-9 {
		return Params{}, errf("mixture fractions sum to %v, want 1", sum)
	}
	if c.Bias == 0 {
		c.Bias = defaultBias
	}
	if !(c.Bias >= 0.9 && c.Bias <= 1) {
		return Params{}, errf("bias %v outside [0.9, 1] (a biased site must be decided >=90%% one way)", c.Bias)
	}
	if c.BlockLen == 0 {
		c.BlockLen = defaultBlockLen
	}
	if c.BlockLen < 1 || c.BlockLen > 64 {
		return Params{}, errf("block_len %d outside [1, 64]", c.BlockLen)
	}
	if c.LoopDepth == 0 {
		c.LoopDepth = defaultLoopDepth
	}
	if c.LoopDepth < 1 || c.LoopDepth > 4 {
		return Params{}, errf("loop_depth %d outside [1, 4]", c.LoopDepth)
	}
	if len(c.TripCounts) == 0 {
		c.TripCounts = defaultTripCounts()
	}
	if len(c.TripCounts) > 8 {
		return Params{}, errf("trip_counts has %d phases, want at most 8", len(c.TripCounts))
	}
	sum := 0
	for _, t := range c.TripCounts {
		if t < 2 || t > 1024 {
			return Params{}, errf("trip count %d outside [2, 1024]", t)
		}
		sum += t
	}
	if mean := float64(sum) / float64(len(c.TripCounts)); mean < 10 {
		return Params{}, errf("trip_counts mean %.1f below 10: the innermost back-edge would not be a biased site", mean)
	}
	if c.Funcs == 0 {
		c.Funcs = defaultFuncs
	}
	if c.Funcs < 1 || c.Funcs > 64 {
		return Params{}, errf("funcs %d outside [1, 64]", c.Funcs)
	}
	if c.CallFanout == 0 {
		c.CallFanout = defaultCallFanout
	}
	if c.CallFanout < 1 || c.CallFanout > 8 {
		return Params{}, errf("call_fanout %d outside [1, 8]", c.CallFanout)
	}
	if c.HotFrac == 0 {
		c.HotFrac = defaultHotFrac
	}
	if !(c.HotFrac >= 0 && c.HotFrac <= 1) {
		return Params{}, errf("hot_frac %v outside (0, 1]", c.HotFrac)
	}
	if c.hotFuncs() < 1 {
		return Params{}, errf("hot_frac %v leaves no hot function among %d funcs", c.HotFrac, c.Funcs)
	}
	if c.IndirectFanout == 0 {
		c.IndirectFanout = defaultIndirectFanout
	}
	if c.IndirectFanout < 1 || c.IndirectFanout > 16 {
		return Params{}, errf("indirect_fanout %d outside [1, 16]", c.IndirectFanout)
	}
	// The indirect dispatch targets are hot functions; clamp rather than
	// reject so "fanout 4" composes with "funcs 2" the way a sweep
	// expects. The clamp is part of the canonical form.
	if h := c.hotFuncs(); c.IndirectFanout > h {
		c.IndirectFanout = h
	}
	if c.Dispatch == "" {
		c.Dispatch = DispatchPeriodic
	}
	if c.Dispatch != DispatchPeriodic && c.Dispatch != DispatchWeighted {
		return Params{}, errf("dispatch %q, want %q or %q", c.Dispatch, DispatchPeriodic, DispatchWeighted)
	}
	// The mixture must be achievable over the structure the other knobs
	// imply; mixtureFractions names the floors when it is not.
	if _, err := c.mixtureFractions(); err != nil {
		return Params{}, err
	}
	return c, nil
}

// CanonicalJSON renders the canonical form as deterministic JSON — the
// bytes that identify the scenario in compile caches and, via the sim
// layer, in shard content addresses.
func (p Params) CanonicalJSON() ([]byte, error) {
	c, err := p.Canonical()
	if err != nil {
		return nil, err
	}
	data, err := json.Marshal(c)
	if err != nil {
		// The canonical form is plain data; it cannot fail to marshal.
		panic(fmt.Sprintf("synth: marshalling canonical params: %v", err))
	}
	return data, nil
}

// hotFuncs returns the size of the hot worker-function set (>= 1 whenever
// the params validate).
func (p Params) hotFuncs() int {
	h := int(math.Round(p.HotFrac * float64(p.Funcs)))
	if h < 1 {
		h = 0 // reported as invalid by Canonical
	}
	if h > p.Funcs {
		h = p.Funcs
	}
	return h
}

// Build canonicalizes p, generates its program, lays it out, and
// validates it — the synth analogue of workload.Build. Equal scenarios
// produce byte-identical programs.
func Build(p Params) (*program.Program, error) {
	c, err := p.Canonical()
	if err != nil {
		return nil, err
	}
	prog, librarySplit := generate(c)
	if err := program.Layout(prog, librarySplit); err != nil {
		return nil, err
	}
	if err := prog.Validate(); err != nil {
		return nil, fmt.Errorf("synth %q: %w", c.Name, err)
	}
	return prog, nil
}

// MustBuild is Build for tests and benchmarks; it panics on error.
func MustBuild(p Params) *program.Program {
	prog, err := Build(p)
	if err != nil {
		panic(err)
	}
	return prog
}
