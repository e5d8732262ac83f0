package sim

import (
	"encoding/json"
	"fmt"
)

// SchemaV1 is the versioned report schema identifier. Any
// backwards-incompatible change to the report shape must bump it; the
// golden-file tests exist to make accidental drift fail CI.
const SchemaV1 = "sim/v1"

// Report is the typed result of one Session.Run: the normalized spec it
// answered, every shard's result, and the per-{workload, observer-config}
// merges across seeds.
type Report struct {
	Schema string `json:"schema"`
	// Spec is the normalized spec (seeds expanded, engine defaulted).
	Spec *Spec `json:"spec"`
	// Workers is the local pool concurrency the run used; 0 when the
	// grid was dispatched through a runner, whose concurrency is its own.
	Workers int `json:"workers"`
	// Shards are in deterministic order: workload-major, then observer
	// configuration (spec order), then seed. With AllowPartial, shards
	// whose execution was abandoned are absent here and enumerated in
	// FailedShards instead; every present shard is byte-identical to the
	// same shard of an all-or-nothing run.
	Shards []Shard `json:"shards"`
	// FailedShards enumerates the grid cells that were abandoned under
	// AllowPartial, in the same deterministic grid order as Shards. Empty
	// (and omitted from the wire) for all-or-nothing runs, so reports
	// without failures are byte-identical to the pre-partial schema.
	FailedShards []FailedShard `json:"failed_shards,omitempty"`
	// Merged folds each configuration's shards across seeds, in the same
	// workload-major order. With AllowPartial, failed seeds are excluded
	// (Seeds counts only the merged survivors) and a configuration whose
	// every seed failed has no entry.
	Merged     []Merged `json:"merged"`
	TotalInsts int64    `json:"total_insts"`
	WallNS     int64    `json:"wall_ns"`
}

// Stripped returns a copy of the report with the fields that legitimately
// vary between runs of one spec cleared: the wall time, the pool size (0
// for a dispatched run, sized by the host otherwise), and every shard's
// elapsed time and cache mark. Two runs of one spec are bit-identical —
// local, dispatched, cached, replayed — exactly when their stripped
// copies marshal to the same bytes.
func (r *Report) Stripped() *Report {
	out := *r
	out.WallNS = 0
	out.Workers = 0
	out.Shards = make([]Shard, len(r.Shards))
	for i, sh := range r.Shards {
		sh.ElapsedNS = 0
		sh.Cached = false
		out.Shards[i] = sh
	}
	return &out
}

// FailedShard is the structured record of one abandoned grid cell: the
// shard's identity, the attempts spent on it, and the terminal error. It
// is data, not a timing field — consumers deciding whether a degraded
// report is still usable inspect exactly this list.
type FailedShard struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Observer string `json:"observer"`
	Attempts int    `json:"attempts"`
	Error    string `json:"error"`
}

// Shard is one {workload, seed, observer-config} measurement. Cached
// marks a shard served from a result cache (shardcache) rather than
// computed for this run; everything else about it — counters, result
// encoding, identity — is bit-identical to a cold shard, so consumers may
// treat the mark like a timing field.
//
// ElapsedNS (and any rate derived from it with Insts) describes the pass
// the shard rode, not a private run: the shards of a (workload, seed)
// coordinate share one walk of its stream — live or replayed — and each
// reports that walk's duration, so per-shard times overlap and do not sum
// to the sweep's wall. A cached shard carries the time of the pass that
// first computed it.
type Shard struct {
	Workload  string
	Seed      uint64
	Observer  string
	Insts     int64
	ElapsedNS int64
	Cached    bool
	Result    Result
}

// Merged is one observer configuration's result folded across a workload's
// seeds.
type Merged struct {
	Workload string
	Observer string
	Seeds    int
	Result   Result
}

// shardWire and mergedWire are the JSON shapes; results embed through
// their canonical EncodeJSON artifact.
type shardWire struct {
	Workload  string          `json:"workload"`
	Seed      uint64          `json:"seed"`
	Observer  string          `json:"observer"`
	Insts     int64           `json:"insts"`
	ElapsedNS int64           `json:"elapsed_ns"`
	Cached    bool            `json:"cached,omitempty"`
	Result    json.RawMessage `json:"result"`
}

// shard is the one wire-to-Shard conversion: the embedded result decodes
// through cfg, the configuration the record's observer key names.
func (w shardWire) shard(cfg ObserverConfig) (Shard, error) {
	res, err := cfg.Decode(w.Result)
	if err != nil {
		return Shard{}, err
	}
	return Shard{
		Workload:  w.Workload,
		Seed:      w.Seed,
		Observer:  w.Observer,
		Insts:     w.Insts,
		ElapsedNS: w.ElapsedNS,
		Cached:    w.Cached,
		Result:    res,
	}, nil
}

type mergedWire struct {
	Workload string          `json:"workload"`
	Observer string          `json:"observer"`
	Seeds    int             `json:"seeds"`
	Result   json.RawMessage `json:"result"`
}

func encodeResult(r Result) (json.RawMessage, error) {
	if r == nil {
		return json.RawMessage("null"), nil
	}
	enc, err := r.EncodeJSON()
	if err != nil {
		return nil, fmt.Errorf("sim: encoding %T: %w", r, err)
	}
	return enc, nil
}

// MarshalJSON implements json.Marshaler.
func (sh Shard) MarshalJSON() ([]byte, error) {
	res, err := encodeResult(sh.Result)
	if err != nil {
		return nil, err
	}
	return json.Marshal(shardWire{Workload: sh.Workload, Seed: sh.Seed, Observer: sh.Observer, Insts: sh.Insts, ElapsedNS: sh.ElapsedNS, Cached: sh.Cached, Result: res})
}

// MarshalJSON implements json.Marshaler.
func (m Merged) MarshalJSON() ([]byte, error) {
	res, err := encodeResult(m.Result)
	if err != nil {
		return nil, err
	}
	return json.Marshal(mergedWire{Workload: m.Workload, Observer: m.Observer, Seeds: m.Seeds, Result: res})
}
