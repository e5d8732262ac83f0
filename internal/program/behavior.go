package program

import "rebalance/internal/rng"

// Behavior decides the outcome of a conditional branch site at each dynamic
// execution. Implementations must be pure functions of their inputs so that
// a program can be executed any number of times with identical results for
// the same RNG stream:
//
//   - count is the number of prior executions of this site,
//   - hist is the global branch history register (1 = taken, LSB most
//     recent) as maintained by the executor,
//   - r is the site's private deterministic RNG stream.
//
// The model kinds map to the branch populations the paper measures:
// BiasedBehavior produces the strongly biased branches that dominate HPC
// code (Figure 2), PatternBehavior and CorrelatedBehavior produce the
// history-predictable branches that distinguish TAGE from gshare (Figure 5),
// and the irregular middle of Figure 2's distribution is a BiasedBehavior
// with p near 0.5.
type Behavior interface {
	Next(count uint64, hist uint64, r *rng.RNG) bool
}

// BiasedBehavior takes the branch with fixed probability P, independently
// at every execution. P near 0 or 1 models the guard and error-check
// branches that are almost never (or almost always) taken; P near 0.5
// models data-dependent branches no predictor can learn beyond their bias.
type BiasedBehavior struct {
	// P is the probability the branch is taken.
	P float64
}

// Next implements Behavior.
func (b BiasedBehavior) Next(_ uint64, _ uint64, r *rng.RNG) bool {
	return r.Bool(b.P)
}

// PatternBehavior repeats a fixed taken/not-taken pattern. A predictor with
// enough (local or global) history learns it perfectly; a 2-bit counter
// does not. This models regular alternations such as boundary handling in
// stencil codes.
type PatternBehavior struct {
	// Pattern is the repeating outcome sequence; must be non-empty.
	Pattern []bool
}

// Next implements Behavior.
func (b PatternBehavior) Next(count uint64, _ uint64, _ *rng.RNG) bool {
	return b.Pattern[count%uint64(len(b.Pattern))]
}

// CorrelatedBehavior computes the outcome as a deterministic boolean
// function of a window of global branch history. The function is a fixed
// pseudo-random truth table derived from Salt, so different sites correlate
// differently. A predictor whose history reaches HistBits learns the branch
// perfectly (given capacity); shorter-history or heavily aliased predictors
// see it as noise with bias Bias.
//
// This is the population that separates TAGE (geometric history lengths,
// tagged entries) from same-budget gshare and tournament predictors in
// Figure 5.
type CorrelatedBehavior struct {
	// HistBits is how many of the most recent global-history bits the
	// outcome depends on (1..16).
	HistBits uint
	// Salt selects the truth table.
	Salt uint64
	// Bias is the fraction of truth-table entries that map to taken.
	Bias float64
}

// Next implements Behavior.
func (b CorrelatedBehavior) Next(_ uint64, hist uint64, _ *rng.RNG) bool {
	n := b.HistBits
	if n == 0 || n > 16 {
		n = 8
	}
	idx := hist & ((1 << n) - 1)
	// Hash the history window with the salt into a uniform 64-bit value;
	// compare against the bias threshold. The same (idx, salt) always
	// yields the same outcome: the branch is a deterministic function of
	// history, which is exactly what history-based predictors exploit.
	x := idx*0x9e3779b97f4a7c15 ^ b.Salt
	x ^= x >> 29
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 32
	threshold := uint64(b.Bias * float64(^uint64(0)))
	return x < threshold
}

// MixedBehavior combines a deterministic history-correlated component with
// occasional independent noise, modeling branches that are mostly but not
// perfectly predictable from history.
type MixedBehavior struct {
	// Base is the deterministic component.
	Base Behavior
	// NoiseP is the probability that an execution's outcome is replaced by
	// an independent coin flip with probability NoiseTaken.
	NoiseP float64
	// NoiseTaken is the taken probability of the noise component.
	NoiseTaken float64
}

// Next implements Behavior.
func (b MixedBehavior) Next(count uint64, hist uint64, r *rng.RNG) bool {
	if r.Bool(b.NoiseP) {
		return r.Bool(b.NoiseTaken)
	}
	return b.Base.Next(count, hist, r)
}

// IterModel generates loop trip counts. count is the number of prior
// executions of the loop (not of the back-edge).
type IterModel interface {
	// Next returns the trip count (>= 1) for the loop's count-th execution.
	Next(count uint64, r *rng.RNG) int
}

// FixedIters always returns N iterations: the loop-branch-predictor-friendly
// case. The paper's loop BP captures exactly loops with a constant trip
// count.
type FixedIters struct {
	// N is the constant trip count; values < 1 behave as 1.
	N int
}

// Next implements IterModel.
func (m FixedIters) Next(_ uint64, _ *rng.RNG) int {
	if m.N < 1 {
		return 1
	}
	return m.N
}

// UniformIters draws the trip count uniformly from [Lo, Hi]: the loop BP
// cannot lock onto a constant count, so exits remain mispredicted.
type UniformIters struct {
	Lo, Hi int
}

// Next implements IterModel.
func (m UniformIters) Next(_ uint64, r *rng.RNG) int {
	lo, hi := m.Lo, m.Hi
	if lo < 1 {
		lo = 1
	}
	if hi < lo {
		hi = lo
	}
	return r.Range(lo, hi)
}

// PhasedIters cycles deterministically through a list of trip counts, one
// per loop execution. A loop BP re-trains quickly on each phase; history
// predictors with long histories can also capture short cycles.
type PhasedIters struct {
	// Counts is the repeating sequence of trip counts.
	Counts []int
}

// Next implements IterModel.
func (m PhasedIters) Next(count uint64, _ *rng.RNG) int {
	n := m.Counts[count%uint64(len(m.Counts))]
	if n < 1 {
		return 1
	}
	return n
}
