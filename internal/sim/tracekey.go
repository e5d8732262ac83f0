package sim

import "rebalance/internal/workload/synth"

// traceKeyVersion prefixes every canonical trace-coordinate key. Bump it
// whenever the coordinate's canonical form or the stream semantics of the
// executor change in a way that makes old materialized traces stale — old
// entries then simply stop matching instead of replaying a wrong stream.
// The prefix differs from the shard result cache's (sc2), so the two key
// spaces are disjoint by construction even in a shared directory.
const traceKeyVersion = "tr1"

// TraceKey returns the shard's trace coordinate content address: a
// versioned hash of the canonicalized {workload, synth-params, seed,
// insts}. Every shard of one (workload, seed) sweep, whatever its observer,
// maps to the same key, which is what lets the trace store serve a
// 9-observer grid with one generation per coordinate. Invalid specs report
// ErrInvalidSpec.
func (sp ShardSpec) TraceKey() (string, error) {
	if _, err := sp.Config(); err != nil {
		return "", err
	}
	return traceKey(sp.Workload, sp.Synth, sp.Seed, sp.Insts), nil
}

// traceKey is TraceKey for pre-validated coordinates (the session's
// internal path, where the spec was validated at normalization). The
// canonical form is the trace coordinate: everything that determines the
// emitted instruction stream, and nothing else. The observer is
// deliberately absent — the stream does not depend on who watches it,
// which is the entire point of stream-once/observe-many.
func traceKey(workload string, sp *synth.Params, seed uint64, insts int64) string {
	return contentKey(traceKeyVersion, append(appendCoord(nil, workload, sp, seed, insts), '}'))
}
