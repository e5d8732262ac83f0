package sim

import (
	"encoding/json"
	"fmt"
	"reflect"
	"strconv"

	"rebalance/internal/wire"
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
	// Workers is the local pool concurrency the run used; 0 when no shard
	// was computed locally (all were cache hits, or went to a runner).
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
//
// Result is read-only: a cached shard's result is its cache record's, shared
// by every run the record serves (Merge only reads its argument).
type Shard struct {
	Workload  string
	Seed      uint64
	Observer  string
	Insts     int64
	ElapsedNS int64
	Cached    bool
	Result    Result
	// enc is a cached result's artifact, encoded once per cache record.
	enc *artifact
}

// artifact is a result's AppendJSON bytes, tied to the result they encode.
type artifact struct {
	of   Result
	json []byte
}

// keepArtifact encodes sh's result once, for every report to copy. Only a
// result held by pointer gets one, so telling a replaced result apart is a
// pointer comparison, which cannot panic.
func (sh *Shard) keepArtifact() {
	if reflect.TypeOf(sh.Result).Kind() != reflect.Pointer {
		return
	}
	if enc, err := sh.Result.AppendJSON(nil); err == nil {
		sh.enc = &artifact{of: sh.Result, json: enc}
	}
}

// matches checks sh is the cell spec names, run to its budget.
func (sh *Shard) matches(spec ShardSpec, cfg ObserverConfig) error {
	if sh.Workload != spec.Workload || sh.Seed != spec.Seed || sh.Observer != cfg.Key() {
		return fmt.Errorf("sim: shard identity mismatch: got {%s %s seed %d}, want {%s %s seed %d}",
			sh.Workload, sh.Observer, sh.Seed, spec.Workload, cfg.Key(), spec.Seed)
	}
	if sh.Insts < spec.Insts {
		return fmt.Errorf("sim: shard {%s %s seed %d} emitted %d < budget %d",
			sh.Workload, sh.Observer, sh.Seed, sh.Insts, spec.Insts)
	}
	return nil
}

// Merged is one observer configuration's result folded across a workload's
// seeds.
type Merged struct {
	Workload string
	Observer string
	Seeds    int
	Result   Result
}

// MarshalJSON implements json.Marshaler.
func (sh Shard) MarshalJSON() ([]byte, error) { return sh.appendJSON(nil) }

// MarshalJSON implements json.Marshaler.
func (m Merged) MarshalJSON() ([]byte, error) { return m.appendJSON(nil) }

// MarshalJSON implements json.Marshaler: the sim/v1 document with every
// shard and merged entry appended in place, so each result's artifact is
// copied once and compacted only by whoever marshals the report.
func (r Report) MarshalJSON() ([]byte, error) {
	spec, err := json.Marshal(r.Spec)
	if err != nil {
		return nil, err
	}
	// A record of the built-in kinds is about half a KiB; a footprint or
	// bias record is larger and the buffer grows.
	b := wire.AppendString(append(make([]byte, 0, 512*(len(r.Shards)+len(r.Merged)+1)), `{"schema":`...), r.Schema)
	b = append(append(b, `,"spec":`...), spec...)
	b = strconv.AppendInt(append(b, `,"workers":`...), int64(r.Workers), 10)
	if b, err = appendAll(append(b, `,"shards":`...), r.Shards, Shard.appendJSON); err != nil {
		return nil, err
	}
	if len(r.FailedShards) > 0 {
		failed, err := json.Marshal(r.FailedShards)
		if err != nil {
			return nil, err
		}
		b = append(append(b, `,"failed_shards":`...), failed...)
	}
	if b, err = appendAll(append(b, `,"merged":`...), r.Merged, Merged.appendJSON); err != nil {
		return nil, err
	}
	b = strconv.AppendInt(append(b, `,"total_insts":`...), r.TotalInsts, 10)
	b = strconv.AppendInt(append(b, `,"wall_ns":`...), r.WallNS, 10)
	return append(b, '}'), nil
}

// appendJSON appends the shard's wire record to b, the one writer of it —
// report entries, worker answers and cache entries alike: the fields in
// wire order, and the result's AppendJSON artifact as it is — copied from
// the cache record's encoding while Result is still the result it encodes.
func (sh Shard) appendJSON(b []byte) ([]byte, error) {
	b = wire.AppendString(append(b, `{"workload":`...), sh.Workload)
	b = strconv.AppendUint(append(b, `,"seed":`...), sh.Seed, 10)
	b = wire.AppendString(append(b, `,"observer":`...), sh.Observer)
	b = strconv.AppendInt(append(b, `,"insts":`...), sh.Insts, 10)
	b = strconv.AppendInt(append(b, `,"elapsed_ns":`...), sh.ElapsedNS, 10)
	if sh.Cached {
		b = append(b, `,"cached":true`...)
	}
	if a := sh.enc; a != nil && a.of == sh.Result {
		return append(append(append(b, `,"result":`...), a.json...), '}'), nil
	}
	return appendResult(append(b, `,"result":`...), sh.Result)
}

// appendJSON appends the merged entry's wire record to b, as Shard's.
func (m Merged) appendJSON(b []byte) ([]byte, error) {
	b = wire.AppendString(append(b, `{"workload":`...), m.Workload)
	b = wire.AppendString(append(b, `,"observer":`...), m.Observer)
	b = strconv.AppendInt(append(b, `,"seeds":`...), int64(m.Seeds), 10)
	return appendResult(append(b, `,"result":`...), m.Result)
}

// appendResult appends r's artifact and closes the record around it.
func appendResult(b []byte, r Result) ([]byte, error) {
	if r == nil {
		return append(b, "null}"...), nil
	}
	b, err := r.AppendJSON(b)
	if err != nil {
		return nil, fmt.Errorf("sim: encoding %T: %w", r, err)
	}
	return append(b, '}'), nil
}

// appendAll appends xs as a JSON array through appendOne — null for a nil
// slice, as encoding/json writes one.
func appendAll[T any](b []byte, xs []T, appendOne func(T, []byte) ([]byte, error)) ([]byte, error) {
	if xs == nil {
		return append(b, "null"...), nil
	}
	b = append(b, '[')
	for i := range xs {
		if i > 0 {
			b = append(b, ',')
		}
		var err error
		if b, err = appendOne(xs[i], b); err != nil {
			return nil, err
		}
	}
	return append(b, ']'), nil
}
