package sim

import (
	"context"
	"fmt"

	"rebalance/internal/wire"
	"rebalance/internal/workload/synth"
)

// ShardSpec names one shard of an expanded {workload x seed x
// observer-config} grid as portable data: the workload and seed, the
// per-shard instruction budget and engine, and an ObserverSpec that
// expands to exactly one configuration. A synthetic workload carries its
// synth/v1 parameter set inline, so the spec stays self-contained: a
// remote worker rebuilds the exact same program from the wire bytes. An
// array of them is the request body of the simd worker protocol (POST
// /v1/shards): the unit the dispatch layer schedules and fails over,
// retrying the members that failed.
type ShardSpec struct {
	Workload string        `json:"workload"`
	Synth    *synth.Params `json:"synth,omitempty"`
	Seed     uint64        `json:"seed"`
	Insts    int64         `json:"insts"`
	Engine   string        `json:"engine,omitempty"`
	Observer ObserverSpec  `json:"observer"`
	// cfg is the configuration of a cell the session expanded from a
	// validated Spec, carried so a runner need not expand it again; a spec
	// off the wire has none. It is not data: neither JSON nor the cache key
	// reads it.
	cfg ObserverConfig
}

// Config validates the shard spec and expands its observer to the single
// configuration it names — at once for a grid cell a session expanded from
// a validated Spec, which carries its configuration. Every failure wraps
// ErrInvalidSpec.
func (sp *ShardSpec) Config() (ObserverConfig, error) {
	if sp == nil {
		return nil, fmt.Errorf("%w: nil shard spec", ErrInvalidSpec)
	}
	if sp.cfg != nil {
		return sp.cfg, nil
	}
	if _, err := checkWorkload(sp.Workload, sp.Synth); err != nil {
		return nil, err
	}
	if sp.Insts < 1 {
		return nil, fmt.Errorf("%w: non-positive instruction budget %d", ErrInvalidSpec, sp.Insts)
	}
	if err := checkEngine(sp.Engine); err != nil {
		return nil, err
	}
	cfgs, err := expandObservers([]ObserverSpec{sp.Observer})
	if err != nil {
		return nil, err
	}
	if len(cfgs) != 1 {
		return nil, fmt.Errorf("%w: shard observer expands to %d configurations, want exactly 1", ErrInvalidSpec, len(cfgs))
	}
	return cfgs[0], nil
}

// EncodeShard renders one shard as its wire record — a member of the
// worker protocol's answer, identical to the shard entries of a sim/v1
// report.
func EncodeShard(sh Shard) ([]byte, error) { return sh.appendJSON(make([]byte, 0, 512)) }

// AppendShard appends the shard's wire record to b, as EncodeShard writes
// it.
func AppendShard(b []byte, sh Shard) ([]byte, error) { return sh.appendJSON(b) }

// DecodeShard parses a shard wire record produced by EncodeShard (possibly
// on another machine) in one pass: the record's result field holds cfg's
// artifact — cfg being the configuration the shard was dispatched for — so
// the envelope and the typed result are read together. The record's
// identity fields must match the expectation: a worker echoing the wrong
// shard is a protocol violation, not data.
func DecodeShard(data []byte, spec ShardSpec, cfg ObserverConfig) (Shard, error) {
	sc := wire.NewScanner(data)
	sh, err := ScanShard(sc, spec, cfg)
	if err == nil && sc.End() != nil {
		err = fmt.Errorf("sim: decoding shard: %w", sc.Err())
	}
	return sh, err
}

// ScanShard is DecodeShard for the record at sc's position, so a document
// holding several (a worker's answer) is read in one pass.
func ScanShard(sc *wire.Scanner, spec ShardSpec, cfg ObserverConfig) (Shard, error) {
	sh := scanEnvelope(sc)
	res, _ := cfg.ScanResult(sc) // a failure sticks in sc
	if sc.Close('}'); sc.Err() != nil {
		return Shard{}, fmt.Errorf("sim: decoding shard: %w", sc.Err())
	}
	sh.Result = res
	if err := sh.matches(spec, cfg); err != nil {
		return Shard{}, err
	}
	return sh, nil
}

// scanEnvelope reads a shard record's fields in wire order up to the
// result's, which the caller reads through the record's configuration and
// then closes the record.
func scanEnvelope(sc *wire.Scanner) Shard {
	sh := Shard{Workload: sc.Open('{').Key("workload").String(), Seed: sc.Key("seed").Uint()}
	sh.Observer = sc.Key("observer").String()
	sh.Insts, sh.ElapsedNS = sc.Key("insts").Int(), sc.Key("elapsed_ns").Int()
	sh.Cached = sc.Field("cached") && sc.Bool()
	sc.Key("result")
	return sh
}

// Outcome is the one shape of a grid cell's fate: the completed shard, or
// the terminal error that abandoned it (Shard is then zero-valued), with
// the attempts spent either way (0 for a result-cache hit).
type Outcome struct {
	Shard    Shard
	Attempts int
	Err      error
}

// ShardRunner computes shards and reports what happened: one Outcome per
// spec, index-aligned. A Session that owns a grid resolves it against its
// result cache, plans its misses and hands each unit to its runner (see
// SetRunner) as one call: the dispatch layer's Dispatcher, which retries,
// fails over and hedges that unit across local and remote backends — each
// itself a ShardRunner, Session.RunShards at the far end. A runner holds no
// failure policy: it runs every shard it can and records a failure as that
// spec's Err. The returned error is only ever "ctx ended before the call
// did". Whether a failure aborts or degrades the run is the Session's
// decision (Spec.AllowPartial), taken in one place, and the grid's owner
// alone names each failure by its cell and delivers each outcome to the
// context's ShardDone hook; a runner beneath it does neither.
type ShardRunner interface {
	RunShards(ctx context.Context, shards []ShardSpec) ([]Outcome, error)
}

// RunShards is the session as a ShardRunner, the execution half of the
// worker protocol (cmd/simd's POST /v1/shards, the dispatch layer's
// LocalBackend). Each spec is expanded — an invalid member fails alone with
// ErrInvalidSpec — and the rest take Run's path, runGrid, on the session
// pool, their units taking the session's slots like any run's (so every
// worker-protocol call shares the process's one budget), with the misses
// grouped by trace coordinate but uncut (whoever owns the whole grid
// planned it, and cutting an arriving unit again would have each of a busy
// worker's concurrent units regenerate its stream workers times). Being a runner beneath the grid's owner, the session neither
// names its failures nor delivers to ShardDone here (a LocalBackend under a
// Dispatcher would otherwise do both twice). The context is polled during
// execution, so a cancelled array aborts promptly.
func (s *Session) RunShards(ctx context.Context, specs []ShardSpec) ([]Outcome, error) {
	cells := make([]gridCell, len(specs))
	out := make([]Outcome, len(specs))
	for i := range specs {
		cells[i].spec = specs[i]
		cells[i].cfg, out[i].Err = specs[i].Config()
	}
	var lead []int
	if s.cache != nil {
		lead = keyCells(cells, out)
	}
	if _, err := s.runGrid(ctx, cells, lead, out, 0, s.runLocal, func(int) {}); err != nil {
		return nil, err
	}
	return out, nil
}

// RunOne is r.RunShards for a single spec: its shard, or whichever error —
// the call's or the member's — kept it from completing.
func RunOne(ctx context.Context, r ShardRunner, spec ShardSpec) (Shard, error) {
	out, err := r.RunShards(ctx, []ShardSpec{spec})
	if err != nil {
		return Shard{}, err
	}
	return out[0].Shard, out[0].Err
}

// RunShard is RunOne on the session, the spelling bench/ and single-shard
// tests use.
func (s *Session) RunShard(ctx context.Context, spec ShardSpec) (Shard, error) {
	return RunOne(ctx, s, spec)
}
