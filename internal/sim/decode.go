package sim

import (
	"fmt"

	"rebalance/internal/wire"
)

// DecodeReport parses a sim/v1 report produced by another process — the
// body of a simd /v1/runs or /v1/sweeps/{id}/result response, or the file
// rebalance-bench wrote — back into a typed Report, in one pass of the
// record scanner (see wire.Scanner for what it accepts). The echoed spec
// comes first, so every embedded result is read in place, to its concrete
// type, through the observer configuration the report's own normalized
// spec names for it, and the round trip is exact: re-marshalling the
// decoded report (with the writer's indentation) yields byte-identical
// JSON, and its results merge like the in-process originals. This is what
// lets a client of a front door (rebalance-bench -coordinator) hand on the
// report it was served exactly as if it had run the sweep itself.
func DecodeReport(data []byte) (*Report, error) {
	sc := wire.NewScanner(data)
	rep := &Report{Schema: sc.Open('{').Key("schema").String()}
	if sc.Err() == nil && rep.Schema != SchemaV1 {
		return nil, fmt.Errorf("sim: decoding report: schema %q, want %q", rep.Schema, SchemaV1)
	}
	byKey := map[string]ObserverConfig{}
	if raw := sc.Key("spec").Raw(); sc.Err() == nil {
		if err := wire.StrictUnmarshal(raw, &rep.Spec); err != nil {
			return nil, fmt.Errorf("sim: decoding report: %w", err)
		}
		if rep.Spec == nil {
			return nil, fmt.Errorf("sim: decoding report: no spec")
		}
		cfgs, err := expandObservers(rep.Spec.Observers)
		if err != nil {
			return nil, fmt.Errorf("sim: decoding report: %w", err)
		}
		for _, cfg := range cfgs {
			byKey[cfg.Key()] = cfg
		}
	}
	// result reads the result of the open record, naming observer, and
	// closes the record.
	result := func(observer, what string, i int) (res Result) {
		if cfg := byKey[observer]; cfg != nil {
			res, _ = cfg.ScanResult(sc)
		} else {
			sc.Fail(fmt.Errorf("%s %d names observer %q, not in the report's spec", what, i, observer))
		}
		sc.Close('}')
		return res
	}
	rep.Workers = sc.Key("workers").HostInt()
	rep.Shards = []Shard{}
	sc.Key("shards").Open('[')
	for sc.More() {
		sh := scanEnvelope(sc)
		sh.Result = result(sh.Observer, "shard", len(rep.Shards))
		rep.Shards = append(rep.Shards, sh)
	}
	if sc.Close(']').Field("failed_shards") {
		if err := wire.StrictUnmarshal(sc.Raw(), &rep.FailedShards); err != nil && sc.Err() == nil {
			sc.Fail(err)
		}
	}
	rep.Merged = []Merged{}
	sc.Key("merged").Open('[')
	for sc.More() {
		m := Merged{Workload: sc.Open('{').Key("workload").String(), Observer: sc.Key("observer").String()}
		m.Seeds = sc.Key("seeds").HostInt()
		sc.Key("result")
		m.Result = result(m.Observer, "merged", len(rep.Merged))
		rep.Merged = append(rep.Merged, m)
	}
	rep.TotalInsts = sc.Close(']').Key("total_insts").Int()
	rep.WallNS = sc.Key("wall_ns").Int()
	if err := sc.Close('}').End(); err != nil {
		return nil, fmt.Errorf("sim: decoding report: %w", err)
	}
	return rep, nil
}
