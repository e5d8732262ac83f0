// Package lru is the set-associative array with true-LRU replacement that
// the paper's BTB (Section IV-B) and L1 I-cache (Section IV-C) both are: a
// key (a branch address, a line address) maps to its set by simple modulo
// indexing, and the array tells the caller whether the key was resident and
// which way holds it now.
package lru

// way is one way of a set: the key it holds, plus one, and the access clock
// at its last use; both are 0 while the way is empty. The clock is 64-bit so
// it never wraps: a wrapped stamp would make the most recently used way the
// least.
type way struct {
	key1  uint64
	stamp uint64
}

// Sets is a set-associative array of keys with true-LRU replacement. Way w
// of set s is way s*ways + w of the array, so a caller can keep state of
// its own per way in a slice beside it.
type Sets struct {
	// A power-of-two set count, every standard geometry's, maps a key with
	// mask, sets-1; any other with a 64-bit division by mod, sets (else 0).
	mask  uint64
	mod   uint64
	ways  int
	data  []way
	clock uint64
}

// New returns sets*ways empty ways.
func New(sets, ways int) *Sets {
	s := &Sets{ways: ways, data: make([]way, sets*ways)}
	if sets&(sets-1) == 0 {
		s.mask = uint64(sets) - 1
	} else {
		s.mod = uint64(sets)
	}
	return s
}

// Reset empties every way, in place: the state New built.
func (s *Sets) Reset() {
	clear(s.data)
	s.clock = 0
}

// Advance moves the access clock on by n, as if n accesses had been made
// that touched no way: the recency order of every set is unchanged. It lets
// a caller start a run at a clock a real one takes billions of accesses to
// reach.
func (s *Sets) Advance(n uint64) { s.clock += n }

// Resident reports whether way w holds a key.
func (s *Sets) Resident(w int) bool { return s.data[w].stamp != 0 }

// Access looks key up in its set, key modulo the set count, and makes it
// the set's most recently used. The whole key is the tag, so two keys never
// alias; a key is below math.MaxUint64. On a miss it fills the set's first
// empty way, else its least recently used one, and evicted reports that the
// way held a key before.
func (s *Sets) Access(key uint64) (w int, hit, evicted bool) {
	s.clock++
	set := key & s.mask
	if s.mod != 0 {
		set = key % s.mod
	}
	base := int(set) * s.ways
	ways := s.data[base : base+s.ways]
	key1 := key + 1
	for i := range ways {
		if e := &ways[i]; e.key1 == key1 {
			e.stamp = s.clock
			return base + i, true, false
		}
	}
	// The least stamp is the LRU way, or the first empty one.
	victim := 0
	for i := 1; i < len(ways); i++ {
		if ways[i].stamp < ways[victim].stamp {
			victim = i
		}
	}
	evicted = ways[victim].stamp != 0
	ways[victim] = way{key1: key1, stamp: s.clock}
	return base + victim, false, evicted
}
