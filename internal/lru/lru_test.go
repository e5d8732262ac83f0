package lru

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"
)

// TestLRUAcrossTheClock32Boundary: one 2-way set accessed A, B, A, C, A
// misses on A, B and C only — C evicts B, the least recently used — from a
// clock of 0 and from one three accesses short of 2^32, where a 32-bit clock
// would wrap and stamp the most recent use of A the least.
func TestLRUAcrossTheClock32Boundary(t *testing.T) {
	for _, start := range []uint64{0, 1<<32 - 3} {
		s := New(1, 2)
		s.clock = start
		var misses []uint64
		for _, key := range []uint64{1, 2, 1, 3, 1} {
			if _, hit, _ := s.Access(key); !hit {
				misses = append(misses, key)
			}
		}
		if !slices.Equal(misses, []uint64{1, 2, 3}) {
			t.Errorf("clock from %d: misses on %v, want [1 2 3]", start, misses)
		}
	}
}

// recency is the specification of one set: its keys, most recently used
// first, at most ways of them.
type recency struct {
	ways int
	keys []uint64
}

// access returns whether key hit, and the key a miss evicted (evicted false
// when the set still had room).
func (r *recency) access(key uint64) (hit bool, victim uint64, evicted bool) {
	if i := slices.Index(r.keys, key); i >= 0 {
		r.keys = slices.Insert(slices.Delete(r.keys, i, i+1), 0, key)
		return true, 0, false
	}
	if len(r.keys) == r.ways {
		victim, evicted = r.keys[r.ways-1], true
		r.keys = r.keys[:r.ways-1]
	}
	r.keys = slices.Insert(r.keys, 0, key)
	return false, victim, evicted
}

// TestSetsMatchRecencyLists drives Sets and one recency list per set (key
// modulo the set count) with the same seeded stream, over geometries that
// include one way, one set (fully associative) and set counts that are not
// powers of two, under a uniform stream and one where a few keys take most
// accesses; keys are spread over 62 bits. Every access checks hit and
// evicted, that a hit is answered with the way that holds the key and a
// miss evicts the list's least recent key or fills the set's next empty
// way, and that the resident ways hold exactly the list's keys. Halfway
// through, both are reset.
func TestSetsMatchRecencyLists(t *testing.T) {
	rnd := rand.New(rand.NewPCG(1, 2))
	for _, sets := range []int{1, 3, 16, 37} {
		for _, ways := range []int{1, 2, 3, 4, 8} {
			for _, hot := range []bool{false, true} {
				t.Run(fmt.Sprintf("%dx%d/hot=%v", sets, ways, hot), func(t *testing.T) {
					keys := uint64(2*sets*ways + 1)
					s := New(sets, ways)
					var model []recency
					var held []uint64 // the key each way of s holds, by the answers s gave
					reset := func() {
						s.Reset()
						model = make([]recency, sets)
						for i := range model {
							model[i].ways = ways
						}
						held = make([]uint64, sets*ways)
					}
					reset()
					for n := 0; n < 4000; n++ {
						if n == 2000 {
							reset()
						}
						k := rnd.Uint64N(keys)
						if hot && rnd.IntN(10) > 0 {
							k = rnd.Uint64N(3)
						}
						key := k * 0x9e3779b97f4a7c15 >> 2
						set := int(key % uint64(sets))
						m := &model[set]
						filled := len(m.keys)
						w, hit, evicted := s.Access(key)
						wantHit, victim, wantEvicted := m.access(key)
						if hit != wantHit || evicted != wantEvicted {
							t.Fatalf("access %d of key %d: hit %v evicted %v, want %v %v", n, key, hit, evicted, wantHit, wantEvicted)
						}
						if w < set*ways || w >= (set+1)*ways {
							t.Fatalf("access %d of key %d: way %d is outside set %d", n, key, w, set)
						}
						switch {
						case hit && held[w] != key:
							t.Fatalf("access %d: hit on way %d, which holds %d, not %d", n, w, held[w], key)
						case evicted && held[w] != victim:
							t.Fatalf("access %d: evicted %d from way %d, want the least recent %d", n, held[w], w, victim)
						case !hit && !evicted && w != set*ways+filled:
							t.Fatalf("access %d: filled way %d, want the first empty one, %d", n, w, set*ways+filled)
						}
						held[w] = key
						var resident []uint64
						for i := set * ways; i < (set+1)*ways; i++ {
							if s.Resident(i) {
								resident = append(resident, held[i])
							}
						}
						slices.Sort(resident)
						want := slices.Clone(m.keys)
						slices.Sort(want)
						if !slices.Equal(resident, want) {
							t.Fatalf("access %d: set %d holds %v, want %v", n, set, resident, want)
						}
					}
				})
			}
		}
	}
}
