// Package rng provides a small, fast, deterministic pseudo-random number
// generator used by every stochastic component in the repository.
//
// Determinism is a core requirement of the reproduction: the same workload
// model must emit a bit-identical instruction stream on every run so that
// characterization results, MPKI values, and the timing/power figures derived
// from them are exactly reproducible. The standard library's math/rand/v2 is
// also deterministic for a fixed seed, but pinning our own tiny generator
// insulates the experiments from cross-version changes in the stdlib stream.
//
// The generator is xoshiro256** seeded through SplitMix64, the construction
// recommended by its authors. It is not cryptographically secure and is not
// meant to be.
package rng

// RNG is a deterministic xoshiro256** pseudo-random number generator.
// The zero value is not valid; construct with New.
type RNG struct {
	s0, s1, s2, s3 uint64
}

// splitMix64 advances a SplitMix64 state and returns the next output.
// It is used only to expand seeds into full xoshiro state.
func splitMix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a generator seeded from the given seed. Any seed, including
// zero, produces a valid non-degenerate state.
func New(seed uint64) *RNG {
	sm := seed
	r := &RNG{}
	r.s0 = splitMix64(&sm)
	r.s1 = splitMix64(&sm)
	r.s2 = splitMix64(&sm)
	r.s3 = splitMix64(&sm)
	return r
}

// mix64 is the SplitMix64 finalizer: a full-avalanche 64-bit permutation.
// Every output bit depends on every input bit, which is what makes it safe
// to derive substreams from structured inputs such as dense site IDs.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// NewStream returns the stream-th substream of a master seed. Both inputs
// pass through the SplitMix64 finalizer before they are combined, so nearby
// stream numbers (0, 1, 2, ...) and nearby seeds produce statistically
// independent generators; a plain XOR of seed and a scaled stream number
// does not have this property and lets adjacent streams correlate.
func NewStream(seed, stream uint64) *RNG {
	h := mix64(seed+0x9e3779b97f4a7c15) ^ mix64(stream*0x9e3779b97f4a7c15+0xbf58476d1ce4e5b9)
	return New(h)
}

// NewFromString returns a generator seeded from an arbitrary string, such as
// a workload name. The same string always produces the same stream.
func NewFromString(s string) *RNG {
	// FNV-1a, 64-bit. Good enough to spread workload names apart.
	const (
		offset = 0xcbf29ce484222325
		prime  = 0x100000001b3
	)
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return New(h)
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s1*5, 7) * 9
	t := r.s1 << 17
	r.s2 ^= r.s0
	r.s3 ^= r.s1
	r.s1 ^= r.s2
	r.s0 ^= r.s3
	r.s2 ^= t
	r.s3 = rotl(r.s3, 45)
	return result
}

// Intn returns a uniformly distributed int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a uniformly distributed float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Range returns a uniformly distributed int in [lo, hi] inclusive.
// It panics if hi < lo.
func (r *RNG) Range(lo, hi int) int {
	if hi < lo {
		panic("rng: Range with hi < lo")
	}
	return lo + r.Intn(hi-lo+1)
}

// Choice returns an index in [0, len(weights)) with probability proportional
// to weights[i]. It panics if weights is empty or sums to <= 0.
func (r *RNG) Choice(weights []float64) int {
	total := 0.0
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if len(weights) == 0 || total <= 0 {
		panic("rng: Choice with empty or non-positive weights")
	}
	x := r.Float64() * total
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		x -= w
		if x < 0 {
			return i
		}
	}
	return len(weights) - 1
}
