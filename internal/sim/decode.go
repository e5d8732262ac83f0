package sim

import (
	"encoding/json"
	"fmt"

	"rebalance/internal/wire"
)

// reportWire is the JSON shape of a sim/v1 Report for decoding: results
// stay raw until the echoed spec's observer configurations say how to
// parse them.
type reportWire struct {
	Schema       string                         `json:"schema"`
	Spec         *Spec                          `json:"spec"`
	Workers      int                            `json:"workers"`
	Shards       []shardRecord[json.RawMessage] `json:"shards"`
	FailedShards []FailedShard                  `json:"failed_shards,omitempty"`
	Merged       []mergedRecord                 `json:"merged"`
	TotalInsts   int64                          `json:"total_insts"`
	WallNS       int64                          `json:"wall_ns"`
}

// mergedRecord is a merged entry's wire record as DecodeReport reads it.
type mergedRecord struct {
	Workload string          `json:"workload"`
	Observer string          `json:"observer"`
	Seeds    int             `json:"seeds"`
	Result   json.RawMessage `json:"result"`
}

// DecodeReport parses a sim/v1 report produced by another process — the
// body of a simd /v1/runs or /v1/sweeps/{id}/result response, or the file
// rebalance-bench wrote — back into a typed Report. Every embedded result
// is decoded to its concrete type through the observer configuration the
// report's own normalized spec names for it, so the round trip is exact:
// re-marshalling the decoded report (with the writer's indentation)
// yields byte-identical JSON, and its results merge like the in-process
// originals. This is what lets an async client (rebalance-bench
// -coordinator) hand on a fetched report exactly as if it had run the
// sweep itself.
func DecodeReport(data []byte) (*Report, error) {
	var w reportWire
	if err := wire.StrictUnmarshal(data, &w); err != nil {
		return nil, fmt.Errorf("sim: decoding report: %w", err)
	}
	if w.Schema != SchemaV1 {
		return nil, fmt.Errorf("sim: decoding report: schema %q, want %q", w.Schema, SchemaV1)
	}
	if w.Spec == nil {
		return nil, fmt.Errorf("sim: decoding report: no spec")
	}
	cfgs, err := expandObservers(w.Spec.Observers)
	if err != nil {
		return nil, fmt.Errorf("sim: decoding report: %w", err)
	}
	byKey := make(map[string]ObserverConfig, len(cfgs))
	for _, cfg := range cfgs {
		byKey[cfg.Key()] = cfg
	}
	rep := &Report{
		Schema:       w.Schema,
		Spec:         w.Spec,
		Workers:      w.Workers,
		FailedShards: w.FailedShards,
		TotalInsts:   w.TotalInsts,
		WallNS:       w.WallNS,
	}
	rep.Shards = make([]Shard, len(w.Shards))
	for i := range w.Shards {
		sh := &w.Shards[i]
		cfg := byKey[sh.Observer]
		if cfg == nil {
			return nil, fmt.Errorf("sim: decoding report: shard %d names observer %q, not in the report's spec", i, sh.Observer)
		}
		res, err := decodeResult(sh.Result, cfg)
		if err != nil {
			return nil, fmt.Errorf("sim: decoding report: shard {%s %s seed %d}: %w", sh.Workload, sh.Observer, sh.Seed, err)
		}
		rep.Shards[i] = sh.shard(res)
	}
	rep.Merged = make([]Merged, len(w.Merged))
	for i, m := range w.Merged {
		cfg := byKey[m.Observer]
		if cfg == nil {
			return nil, fmt.Errorf("sim: decoding report: merged %d names observer %q, not in the report's spec", i, m.Observer)
		}
		res, err := decodeResult(m.Result, cfg)
		if err != nil {
			return nil, fmt.Errorf("sim: decoding report: merged %s/%s: %w", m.Workload, m.Observer, err)
		}
		rep.Merged[i] = Merged{Workload: m.Workload, Observer: m.Observer, Seeds: m.Seeds, Result: res}
	}
	return rep, nil
}
