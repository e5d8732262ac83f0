// Package analysis implements the paper's architecture-independent
// characterization "pintools" (Section III): the dynamic branch-instruction
// mix (Figure 1), the conditional-branch direction-bias distribution
// (Figure 2) and backward/forward taken split (Table I), static and
// 99%-dynamic instruction footprints (Figure 3), and basic-block length and
// taken-branch distance (Figure 4).
//
// Any subset of the analyzers can share a single pass over a workload's
// instruction stream. All four consume lanes (trace.LaneConsumer, behind a
// trace.Feed): BranchMix, Bias and BBL draw figures of control-flow events
// and the byte ranges between them, so they read the fetch runs; Footprint
// counts instructions per chunk, so it also walks the lane's instruction
// sizes. All analyzers separate serial from parallel code sections, the
// paper's distinguishing methodological choice.
//
// Observers only accumulate: an analyzer's surface is its constructor, its
// one consumer method (ConsumeLane) and Result. Every figure value is derived once, by an exported method on the
// mergeable *Result type, and AppendJSON fills the wire from those same
// methods — so a test asserts on exactly the number a report carries.
package analysis

import (
	"cmp"
	"slices"
)

// Phase selects which code sections a metric aggregates over.
type Phase int

const (
	// Total aggregates over the whole stream.
	Total Phase = iota
	// Serial aggregates over sequential sections only.
	Serial
	// Parallel aggregates over parallel sections only.
	Parallel

	numPhases
)

// NumPhases is the number of aggregation phases.
const NumPhases = int(numPhases)

// String returns the phase name as used in the paper's figures.
func (p Phase) String() string {
	switch p {
	case Total:
		return "total"
	case Serial:
		return "serial"
	case Parallel:
		return "parallel"
	}
	return "phase?"
}

// Phases lists the aggregation phases in figure order.
var Phases = [NumPhases]Phase{Total, Serial, Parallel}

// phaseRange maps a Phase to the counter indices it spans.
func phaseRange(p Phase) []int {
	switch p {
	case Serial:
		return []int{0}
	case Parallel:
		return []int{1}
	default:
		return []int{0, 1}
	}
}

// over sums a [serial, parallel] counter pair over the phase.
func over(v [2]int64, p Phase) int64 {
	switch p {
	case Serial:
		return v[0]
	case Parallel:
		return v[1]
	default:
		return v[0] + v[1]
	}
}

// sortedKeys returns m's keys in order, the order an artifact lists its
// sites and chunks in.
func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m { //repolint:allow nodeterminism appended then sorted before use
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}
