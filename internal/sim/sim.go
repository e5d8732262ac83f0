// Package sim is the declarative run layer: a Spec names workloads, seeds,
// an instruction budget, and a typed observer set; a Session
// validates it, compiles each workload once (cached for the session's
// lifetime), fans {workload x seed x observer-config} shards across a
// worker pool, and merges the shards into a versioned sim/v1 Report.
//
// This is the paper's "one instrumented run, many observers" methodology
// turned into an API: every entrypoint — cmd/rebalance-bench, cmd/simd,
// tests, future remote workers — expresses a run as data instead of
// hand-building shard grids. The names a Spec may use are closed sets —
// the observer kinds here, bpred's predictor configurations, the workload
// package's profiles — and a new scenario is data: inline synth/v1 params,
// geometries and config lists as observer options.
package sim

import (
	"bytes"
	"encoding/json"
	"fmt"

	"rebalance/internal/program"
	"rebalance/internal/trace"
	"rebalance/internal/wire"
)

// Result is one observer configuration's measurement over an instruction
// stream. The concrete types live with their simulators — bpred.Result,
// btb.Result, icache.Result, and the analysis package's Mix/Bias/
// Footprint/BBL results all implement it — so a result merges and encodes
// the same way whether it came from a local shard, a test, or (later) a
// remote worker.
type Result interface {
	// Merge folds another shard's result of the same concrete type and
	// configuration into the receiver. The parameter is typed any so
	// implementations need not import this package.
	Merge(other any) error
	// EncodeJSON renders the result as its canonical JSON artifact, compact
	// and escaped as json.Marshal writes it: shard records and reports embed
	// these bytes as they are.
	EncodeJSON() ([]byte, error)
}

// ShardObserver is a fresh per-shard observer instance: it watches one
// seeded stream — as lanes from the session's sources, instruction by
// instruction from the reference engine — and then seals its measurement
// into a Result.
type ShardObserver interface {
	trace.Observer
	trace.LaneConsumer
	// Finish seals the observation and returns the shard's result.
	Finish() (Result, error)
}

// ObserverConfig is one expanded observer configuration — one axis value of
// the {workload x seed x observer-config} shard grid. A configuration is
// both executable (NewObserver) and portable: Spec re-describes it as data
// a remote worker re-expands, and DecodeTarget parses the result artifact
// that worker sends back — together the two halves of the shard wire
// contract the dispatch layer runs on.
type ObserverConfig interface {
	// Key uniquely identifies the configuration within a report, e.g.
	// "bpred/gshare-big" or "btb/512x4".
	Key() string
	// NewObserver returns a fresh power-on instance for one shard of prog.
	NewObserver(prog *program.Program) ShardObserver
	// NewResult returns an empty accumulator the Session merges the
	// configuration's per-seed shard results into.
	NewResult() Result
	// Spec re-describes the configuration as an ObserverSpec that expands
	// (through observerKinds, on any process) to exactly this configuration —
	// how a single shard of the grid is named on the wire.
	Spec() ObserverSpec
	// DecodeTarget returns a fresh decode target (see wire.Target) for one
	// Result of this configuration's canonical JSON artifact — the bytes
	// EncodeJSON produced, possibly on another machine. ptr is the result
	// package's wire shape behind a pointer to a nil pointer: a record that
	// holds it as the value of its `any` result field parses the envelope
	// and the typed result in one pass. build, called once that decode is
	// done, makes the Result and applies the configuration's identity
	// checks; it fails when the record held no result (absent or null). The
	// round trip must be exact: re-encoding the decoded result yields
	// byte-identical JSON, and merging decoded results equals merging the
	// in-process originals.
	DecodeTarget() (ptr any, build func() (Result, error))
}

// target lifts a result package's typed decode target (its NewTarget) to a
// DecodeTarget, check being the configuration's identity test on what it
// builds.
func target[R Result](newTarget func() (any, func() (R, error)), check func(R) error) (any, func() (Result, error)) {
	ptr, build := newTarget()
	return ptr, func() (Result, error) {
		r, err := build()
		if err == nil && check != nil {
			err = check(r)
		}
		if err != nil {
			return nil, err
		}
		return r, nil
	}
}

// decodeResult parses one result artifact on its own through cfg's target.
func decodeResult(data []byte, cfg ObserverConfig) (Result, error) {
	return wire.Decode(data, cfg.DecodeTarget)
}

// observerFactory expands one ObserverSpec's options into concrete
// configurations. A nil/absent options payload must select a sensible
// default set (e.g. every predictor configuration, the standard geometries).
type observerFactory func(opts json.RawMessage) ([]ObserverConfig, error)

// observerKinds is every observer kind a Spec may name, sorted by kind.
var observerKinds = []struct {
	kind string
	new  observerFactory
}{
	{"bbl", bblFactory},
	{"bias", biasFactory},
	{"bpred", bpredFactory},
	{"branch-mix", branchMixFactory},
	{"btb", btbFactory},
	{"footprint", footprintFactory},
	{"icache", icacheFactory},
}

// ObserverKinds returns the observer kinds, sorted.
func ObserverKinds() []string {
	out := make([]string, len(observerKinds))
	for i, k := range observerKinds {
		out[i] = k.kind
	}
	return out
}

// expandObservers resolves every ObserverSpec through observerKinds and
// checks the resulting configuration keys are unique.
func expandObservers(specs []ObserverSpec) ([]ObserverConfig, error) {
	var out []ObserverConfig
	seen := map[string]bool{}
	for _, os := range specs {
		var f observerFactory
		for _, k := range observerKinds {
			if k.kind == os.Kind {
				f = k.new
				break
			}
		}
		if f == nil {
			return nil, fmt.Errorf("%w: unknown observer kind %q (have %v)", ErrInvalidSpec, os.Kind, ObserverKinds())
		}
		cfgs, err := f(os.Options)
		if err != nil {
			return nil, fmt.Errorf("%w: observer %q: %v", ErrInvalidSpec, os.Kind, err)
		}
		for _, c := range cfgs {
			if seen[c.Key()] {
				return nil, fmt.Errorf("%w: duplicate observer configuration %q", ErrInvalidSpec, c.Key())
			}
			seen[c.Key()] = true
			out = append(out, c)
		}
	}
	return out, nil
}

// GroupResult is an ordered set of results measured by one grouped
// observer in a single pass over the stream (e.g. a multi-predictor
// bpred.Sim). It merges element-wise and encodes as a JSON array.
type GroupResult struct {
	Results []Result
}

// Merge implements Result.
func (g *GroupResult) Merge(other any) error {
	o, ok := other.(*GroupResult)
	if !ok {
		return fmt.Errorf("sim: cannot merge %T into *sim.GroupResult", other)
	}
	if len(g.Results) != len(o.Results) {
		return fmt.Errorf("sim: merging group results of different sizes (%d vs %d)", len(o.Results), len(g.Results))
	}
	for i := range g.Results {
		if err := g.Results[i].Merge(o.Results[i]); err != nil {
			return err
		}
	}
	return nil
}

// EncodeJSON implements Result.
func (g *GroupResult) EncodeJSON() ([]byte, error) {
	var buf bytes.Buffer
	buf.WriteByte('[')
	for i, r := range g.Results {
		if i > 0 {
			buf.WriteByte(',')
		}
		enc, err := r.EncodeJSON()
		if err != nil {
			return nil, err
		}
		buf.Write(enc)
	}
	buf.WriteByte(']')
	return buf.Bytes(), nil
}

// strictDecode unmarshals opts into v, rejecting unknown fields so typos in
// a Spec's observer options fail loudly instead of silently selecting
// defaults. Nil or empty options leave v at its zero value.
func strictDecode(opts json.RawMessage, v any) error {
	if len(opts) == 0 || bytes.Equal(bytes.TrimSpace(opts), []byte("null")) {
		return nil
	}
	return wire.StrictUnmarshal(opts, v)
}
