package sim

import (
	"encoding/json"
	"errors"
	"fmt"

	"rebalance/internal/wire"
	"rebalance/internal/workload"
	"rebalance/internal/workload/synth"
)

// ErrInvalidSpec wraps every validation failure so servers can map bad
// requests to 400s while genuine execution failures stay 500s.
var ErrInvalidSpec = errors.New("sim: invalid spec")

// maxSeedExpansion is the ceiling on seed_count expansion: normalization
// materializes the seed list (the Report echoes it), so the ceiling is
// what keeps a tiny hostile spec from allocating an enormous slice or
// burning arbitrary CPU in validation. 64Ki seeds is far beyond any
// statistically useful sweep; explicit seed lists are unaffected. It is a
// validation rule, not a serving limit: those are the server's to apply.
const maxSeedExpansion = 1 << 16

// EngineCompiled is the one value Spec.Engine and ShardSpec.Engine accept
// besides "": the production flat threaded-code engine with batched
// observation (trace.Executor.Run). The retained tree-walk engine
// (trace.Executor.RunReference) is the in-test oracle, not a request
// option.
const EngineCompiled = "compiled"

// checkEngine rejects every engine name but EngineCompiled and its
// omitted spelling.
func checkEngine(e string) error {
	if e != "" && e != EngineCompiled {
		return fmt.Errorf("%w: unknown engine %q (have %q)", ErrInvalidSpec, e, EngineCompiled)
	}
	return nil
}

// checkWorkload is the one workload-identity check, shared by Spec and
// ShardSpec validation: name must be non-empty and resolve either to the
// inline scenario p — which must canonicalize, carry that name, and not
// shadow a built-in workload — or, with p nil, to a built-in workload.
// It returns p's canonical form; every failure wraps ErrInvalidSpec.
func checkWorkload(name string, p *synth.Params) (*synth.Params, error) {
	switch {
	case name == "":
		return nil, fmt.Errorf("%w: empty workload name", ErrInvalidSpec)
	case p == nil && !workload.Has(name):
		return nil, fmt.Errorf("%w: unknown workload %q (have %v; an inline synth scenario travels as synth params)", ErrInvalidSpec, name, workload.Names())
	case p == nil:
		return nil, nil
	}
	c, err := p.Canonical()
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalidSpec, err)
	}
	if c.Name != name {
		return nil, fmt.Errorf("%w: workload %q does not match its synth params name %q", ErrInvalidSpec, name, c.Name)
	}
	if workload.Has(name) {
		return nil, fmt.Errorf("%w: synth workload %q collides with a registered workload (ambiguous addressing)", ErrInvalidSpec, name)
	}
	return &c, nil
}

// Spec declaratively describes one run: which workload streams to emit,
// with which seeds and instruction budget, on which engine, watched by
// which observer configurations. Every name is one of a fixed set
// (workload.Names, ObserverKinds, bpred.ConfigNames) or an inline synth
// scenario, so a Spec serialized as JSON is a complete, portable
// description of an experiment.
type Spec struct {
	// Workloads names the workload models to run: built-in names
	// (workload.Names lists them) and the names of any inline
	// Synth scenarios. Every observer configuration runs over every
	// workload.
	Workloads []string `json:"workloads"`
	// Synth defines synthetic workloads inline as synth/v1 parameter
	// sets, making the workload axis data the way the observer axis
	// already is: no code change, no deploy — the params travel with
	// the spec (and over the worker protocol, so remote workers build
	// the exact same program). Each entry's Name must appear in
	// Workloads and must not collide with a built-in workload
	// (ambiguous addressing). Normalization canonicalizes the entries.
	Synth []synth.Params `json:"synth,omitempty"`
	// Seeds are the explicit per-stream seeds. Leave empty and set
	// SeedCount to use seeds 1..SeedCount.
	Seeds []uint64 `json:"seeds,omitempty"`
	// SeedCount expands to Seeds 1..SeedCount when Seeds is empty.
	SeedCount int `json:"seed_count,omitempty"`
	// Insts is the dynamic instruction budget per shard. Emission stops
	// at the first region boundary past the budget (see trace.Run), so
	// shards overshoot by at most one region.
	Insts int64 `json:"insts"`
	// Engine is EngineCompiled or empty (the same thing); the normalized
	// echo and the canonical keys always spell it out.
	Engine string `json:"engine,omitempty"`
	// Observers is the typed observer set; each entry expands through the
	// kind's factory into one or more shard configurations.
	Observers []ObserverSpec `json:"observers"`
	// AllowPartial degrades shard failures instead of failing the run:
	// a shard whose execution is abandoned (locally errored, or — through
	// the dispatch layer — exhausted its retry budget) is recorded as a
	// structured entry in the report's failed_shards list, its seed is
	// excluded from the merge, and every other shard is byte-identical to
	// an all-or-nothing run. The default (false) is strict: the first
	// shard failure cancels the rest of the grid and fails the whole run.
	// A run in which every shard failed is an error even with
	// AllowPartial — there is nothing to degrade to. This field is the
	// only place the policy lives; runners just report.
	AllowPartial bool `json:"allow_partial,omitempty"`
}

// ObserverSpec names one observer kind with its kind-specific options (for
// example predictor config names for "bpred", geometries for "btb" and
// "icache"). Nil options select the kind's default configuration set.
type ObserverSpec struct {
	Kind    string          `json:"kind"`
	Options json.RawMessage `json:"options,omitempty"`
}

// normalized validates the spec and returns a canonical copy: seeds
// expanded, engine defaulted. The copy is what a Report echoes back.
func (s *Spec) normalized() (*Spec, error) {
	if s == nil {
		return nil, fmt.Errorf("%w: nil spec", ErrInvalidSpec)
	}
	out := &Spec{
		Workloads:    append([]string(nil), s.Workloads...),
		Synth:        append([]synth.Params(nil), s.Synth...),
		Seeds:        append([]uint64(nil), s.Seeds...),
		Insts:        s.Insts,
		Engine:       s.Engine,
		Observers:    append([]ObserverSpec(nil), s.Observers...),
		AllowPartial: s.AllowPartial,
	}
	if len(out.Workloads) == 0 {
		return nil, fmt.Errorf("%w: no workloads", ErrInvalidSpec)
	}
	// Resolve every workload name, against the inline scenario of that
	// name when there is one. The canonical forms replace the request's
	// spellings: the normalized spec a Report echoes is the scenario's
	// identity.
	synthByName := map[string]*synth.Params{}
	for i := range out.Synth {
		p := &out.Synth[i]
		if synthByName[p.Name] != nil {
			return nil, fmt.Errorf("%w: duplicate synth workload %q", ErrInvalidSpec, p.Name)
		}
		synthByName[p.Name] = p
	}
	seenW := map[string]bool{}
	for _, w := range out.Workloads {
		c, err := checkWorkload(w, synthByName[w])
		if err != nil {
			return nil, err
		}
		if seenW[w] {
			return nil, fmt.Errorf("%w: duplicate workload %q", ErrInvalidSpec, w)
		}
		seenW[w] = true
		if c != nil {
			*synthByName[w] = *c
		}
	}
	for i := range out.Synth {
		if !seenW[out.Synth[i].Name] {
			return nil, fmt.Errorf("%w: synth workload %q not listed in workloads", ErrInvalidSpec, out.Synth[i].Name)
		}
	}
	if len(out.Seeds) == 0 {
		n := s.SeedCount
		if n == 0 {
			n = 1
		}
		if n < 0 {
			return nil, fmt.Errorf("%w: negative seed_count %d", ErrInvalidSpec, n)
		}
		// Reject absurd expansions before allocating: a few bytes of JSON
		// must not be able to materialize a multi-gigabyte seed slice
		// (DecodeSpec feeds this path with untrusted input).
		if n > maxSeedExpansion {
			return nil, fmt.Errorf("%w: seed_count %d exceeds the expansion limit %d", ErrInvalidSpec, n, maxSeedExpansion)
		}
		for i := 1; i <= n; i++ {
			out.Seeds = append(out.Seeds, uint64(i))
		}
	} else if s.SeedCount != 0 {
		return nil, fmt.Errorf("%w: set either seeds or seed_count, not both", ErrInvalidSpec)
	}
	seenS := map[uint64]bool{}
	for _, sd := range out.Seeds {
		if seenS[sd] {
			return nil, fmt.Errorf("%w: duplicate seed %d", ErrInvalidSpec, sd)
		}
		seenS[sd] = true
	}
	if out.Insts < 1 {
		return nil, fmt.Errorf("%w: non-positive instruction budget %d", ErrInvalidSpec, out.Insts)
	}
	if err := checkEngine(out.Engine); err != nil {
		return nil, err
	}
	out.Engine = EngineCompiled
	if len(out.Observers) == 0 {
		return nil, fmt.Errorf("%w: no observers", ErrInvalidSpec)
	}
	return out, nil
}

// GridSize validates the spec without executing it — workload names,
// seeds, budget, engine, and the full observer expansion — and returns
// the number of shards it expands to: {workloads x observer-configs x
// seeds}, computed without building the grid. It imposes no limit on that
// number; a sweep coordinator's MaxShards is the limit applied to it. (What a
// unit costs at the session's gate is its member count, not its grid's
// size.) Every failure wraps ErrInvalidSpec.
func (s *Spec) GridSize() (int, error) {
	norm, err := s.normalized()
	if err != nil {
		return 0, err
	}
	cfgs, err := expandObservers(norm.Observers)
	if err != nil {
		return 0, err
	}
	return len(norm.Workloads) * len(cfgs) * len(norm.Seeds), nil
}

// DecodeSpec parses and validates a Spec from JSON. Unknown fields,
// malformed JSON, and semantically invalid specs all report ErrInvalidSpec,
// so servers can map any decode failure to a 400 without inspecting it.
func DecodeSpec(data []byte) (*Spec, error) {
	var s Spec
	if err := wire.StrictUnmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%w: decoding spec: %v", ErrInvalidSpec, err)
	}
	if _, err := s.GridSize(); err != nil {
		return nil, err
	}
	return &s, nil
}
