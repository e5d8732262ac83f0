package bpred

import "rebalance/internal/isa"

// LoopPredictor is the 64-entry loop branch predictor the paper overlays on
// the small base predictors (~512B of state). It identifies conditional
// branches that behave as loop back-edges with a constant trip count: taken
// N-1 times, then not taken once. Once an entry reaches high confidence
// (the same trip count observed twice in a row, per Seznec's L-TAGE loop
// predictor), its prediction overrides the base predictor — so the single
// not-taken exit at iteration N is predicted correctly, where a saturated
// 2-bit counter would be in a strongly-taken state and miss.
type LoopPredictor struct {
	entries []loopEntry
	ways    int
	setMask uint64 // sets-1; the set count is a power of two
}

type loopEntry struct {
	tag        uint16
	valid      bool
	tripCount  uint16 // learned iteration count (taken count before exit)
	currentIt  uint16 // taken streak observed since last not-taken
	prevTrip   uint16 // last completed streak, to require two agreeing trips
	confidence uint8  // saturating 0..3; >=2 overrides the base predictor
	age        uint8  // replacement age
}

// loopTagBits is the partial tag width of a loop predictor entry.
const loopTagBits = 14

// NewLoopPredictor returns the paper's 64-entry, 4-way loop predictor. It
// takes no parameters, so every power-on loop table is the same function of
// the branch sequence (Sim relies on that to walk one for all "L-"
// configurations).
func NewLoopPredictor() *LoopPredictor {
	const entries, ways = 64, 4
	sets := entries / ways
	if sets&(sets-1) != 0 {
		panic("bpred: loop predictor set count must be a power of two")
	}
	return &LoopPredictor{entries: make([]loopEntry, entries), ways: ways, setMask: uint64(sets - 1)}
}

func (l *LoopPredictor) reset() { clear(l.entries) }

// entryCost is the per-entry storage in bits: tag(14) + trip(16) +
// current(16) + prev(16) + confidence(2) + age(2) ≈ 66 bits; 64 entries ≈
// 528 bytes, matching the paper's "approximate hardware budget of 512B".
const loopEntryCostBits = loopTagBits + 16 + 16 + 16 + 2 + 2

// CostBits returns the loop predictor's storage cost in bits.
func (l *LoopPredictor) CostBits() int { return len(l.entries) * loopEntryCostBits }

// Access returns the loop predictor's say on the branch at pc — when
// confident is false the base predictor's decision stands — and then trains
// on the actual outcome. The set is searched once: the prediction is read
// from, and the training applied to, the entry that search found.
func (l *LoopPredictor) Access(pc isa.Addr, actualTaken bool) (taken, confident bool) {
	bits := pcIndexBits(pc)
	set := l.entries[int(bits&l.setMask)*l.ways:][:l.ways]
	tag := uint16(bits >> 4 & (1<<loopTagBits - 1))
	for w := range set {
		if e := &set[w]; e.valid && e.tag == tag {
			// Predict taken while the learned trip count has not been
			// reached; at iteration tripCount the branch exits (not taken).
			taken, confident = e.currentIt < e.tripCount, e.confidence >= 2 && e.tripCount != 0
			e.train(actualTaken)
			return taken, confident
		}
	}
	// Allocate only on a not-taken outcome of a branch we have seen taken: a
	// loop exit candidate. Allocating on every branch would thrash the tiny
	// table; allocating on not-taken outcomes finds back-edges at their
	// first exit. The victim is the first invalid way, else the youngest.
	if !actualTaken {
		victim := &set[0]
		for w := range set {
			if !set[w].valid {
				victim = &set[w]
				break
			}
			if set[w].age < victim.age {
				victim = &set[w]
			}
		}
		*victim = loopEntry{tag: tag, valid: true}
	}
	return false, false
}

// train updates a matching entry with the branch's actual outcome.
func (e *loopEntry) train(actualTaken bool) {
	if actualTaken {
		e.currentIt++
		if e.currentIt == 0 { // overflow: not a countable loop
			e.valid = false
		}
		e.age = ctrUpdate(e.age, true)
		return
	}
	// Loop exit: the completed streak is a trip-count observation.
	trip := e.currentIt
	if trip == e.prevTrip && trip > 0 {
		e.confidence = ctrUpdate(e.confidence, true)
	} else {
		e.confidence = 0
	}
	e.tripCount, e.prevTrip = trip, trip
	e.currentIt = 0
}

// WithLoop augments a base predictor with a loop predictor: when the loop
// predictor is confident for a branch, its prediction overrides the base.
// Both components always train. This is the paper's "L-" configuration
// (e.g. L-gshare-small).
type WithLoop struct {
	base Predictor
	loop *LoopPredictor
}

// NewWithLoop wraps base with a fresh 64-entry loop predictor.
func NewWithLoop(base Predictor) *WithLoop {
	return &WithLoop{base: base, loop: NewLoopPredictor()}
}

// Access implements Predictor.
func (w *WithLoop) Access(pc isa.Addr, taken bool) bool {
	basePred := w.base.Access(pc, taken)
	if loopPred, confident := w.loop.Access(pc, taken); confident {
		return loopPred
	}
	return basePred
}

// Name implements Predictor.
func (w *WithLoop) Name() string { return "L-" + w.base.Name() }

// CostBits implements Predictor.
func (w *WithLoop) CostBits() int { return w.base.CostBits() + w.loop.CostBits() }
