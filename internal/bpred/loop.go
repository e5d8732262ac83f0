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

// NewLoopPredictor returns the paper's 64-entry, 4-way loop predictor.
func NewLoopPredictor() *LoopPredictor {
	return &LoopPredictor{entries: make([]loopEntry, 64), ways: 4}
}

// entryCost is the per-entry storage in bits: tag(14) + trip(16) +
// current(16) + prev(16) + confidence(2) + age(2) ≈ 66 bits; 64 entries ≈
// 528 bytes, matching the paper's "approximate hardware budget of 512B".
const loopEntryCostBits = loopTagBits + 16 + 16 + 16 + 2 + 2

// CostBits returns the loop predictor's storage cost in bits.
func (l *LoopPredictor) CostBits() int { return len(l.entries) * loopEntryCostBits }

// lookup finds the entry for pc, or the replacement victim if absent.
func (l *LoopPredictor) lookup(pc isa.Addr) (idx int, hit bool) {
	sets := len(l.entries) / l.ways
	set := int(pcIndexBits(pc)) % sets
	tag := uint16(pcIndexBits(pc) >> 4 & (1<<loopTagBits - 1))
	for w := 0; w < l.ways; w++ {
		i := set*l.ways + w
		e := &l.entries[i]
		if e.valid && e.tag == tag {
			return i, true
		}
	}
	victim := set * l.ways
	for w := 0; w < l.ways; w++ {
		i := set*l.ways + w
		if !l.entries[i].valid {
			return i, false
		}
		if l.entries[i].age < l.entries[victim].age {
			victim = i
		}
	}
	return victim, false
}

// Predict returns (predictedTaken, confident). When confident is false the
// base predictor's decision stands.
func (l *LoopPredictor) Predict(pc isa.Addr) (taken, confident bool) {
	i, hit := l.lookup(pc)
	if !hit {
		return false, false
	}
	e := &l.entries[i]
	if e.confidence < 2 || e.tripCount == 0 {
		return false, false
	}
	// Predict taken while the learned trip count has not been reached;
	// at iteration tripCount the branch exits (not taken).
	return e.currentIt < e.tripCount, true
}

// Update trains the loop predictor with the branch's actual outcome.
func (l *LoopPredictor) Update(pc isa.Addr, actualTaken bool) {
	i, hit := l.lookup(pc)
	e := &l.entries[i]
	if !hit {
		// Allocate only on a not-taken outcome of a branch we have seen
		// taken: a loop exit candidate. Allocating on every branch would
		// thrash the tiny table; allocating on not-taken outcomes finds
		// back-edges at their first exit.
		if actualTaken {
			return
		}
		tag := uint16(pcIndexBits(pc) >> 4 & (1<<loopTagBits - 1))
		*e = loopEntry{tag: tag, valid: true}
		return
	}
	if actualTaken {
		e.currentIt++
		if e.currentIt == 0 { // overflow: not a countable loop
			e.valid = false
		}
		if e.age < 3 {
			e.age++
		}
		return
	}
	// Loop exit: the completed streak is a trip-count observation.
	trip := e.currentIt
	if trip == e.prevTrip && trip > 0 {
		if e.confidence < 3 {
			e.confidence++
		}
		e.tripCount = trip
	} else {
		e.confidence = 0
		e.tripCount = trip
	}
	e.prevTrip = trip
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
	loopPred, confident := w.loop.Predict(pc)
	basePred := w.base.Access(pc, taken)
	w.loop.Update(pc, taken)
	if confident {
		return loopPred
	}
	return basePred
}

// Name implements Predictor.
func (w *WithLoop) Name() string { return "L-" + w.base.Name() }

// CostBits implements Predictor.
func (w *WithLoop) CostBits() int { return w.base.CostBits() + w.loop.CostBits() }
