// Package stats provides the small statistical toolkit shared by the
// characterization analyzers: histograms with fixed bucket boundaries
// (Figure 2 uses ten 10%-wide buckets) and weighted footprint percentiles
// (Figure 3 uses the smallest memory holding 99% of dynamic instructions).
package stats

import (
	"math"
	"sort"
)

// Histogram is a fixed-boundary bucket histogram over [0, 1].
// Bucket i of k spans [i/k, (i+1)/k), with the final bucket closed at 1.
type Histogram struct {
	counts []int64
	total  int64
}

// NewHistogram returns a histogram with k equal-width buckets over [0,1].
func NewHistogram(k int) *Histogram {
	if k <= 0 {
		panic("stats: NewHistogram with non-positive bucket count")
	}
	return &Histogram{counts: make([]int64, k)}
}

// Add records a value in [0,1] with the given weight. Values outside [0,1]
// are clamped.
func (h *Histogram) Add(v float64, weight int64) {
	if v < 0 {
		v = 0
	}
	if v > 1 {
		v = 1
	}
	i := int(v * float64(len(h.counts)))
	if i == len(h.counts) {
		i--
	}
	h.counts[i] += weight
	h.total += weight
}

// Buckets returns the number of buckets.
func (h *Histogram) Buckets() int { return len(h.counts) }

// Fraction returns bucket i's share of the total weight (0 if empty).
func (h *Histogram) Fraction(i int) float64 {
	if h.total == 0 {
		return 0
	}
	return float64(h.counts[i]) / float64(h.total)
}

// WeightedItem is a value with an associated weight, used for footprint
// percentile computations where the value is a block's size in bytes and
// the weight is its dynamic execution count.
type WeightedItem struct {
	Size   int64 // bytes contributed if this item is included
	Weight int64 // dynamic weight (execution count x size, typically)
}

// FootprintForCoverage returns the smallest total Size (in bytes) of a subset
// of items whose cumulative Weight reaches the given coverage fraction of the
// total weight. This implements the paper's "memory needed to store 99% of
// dynamic instructions" metric: blocks are taken from hottest to coldest.
func FootprintForCoverage(items []WeightedItem, coverage float64) int64 {
	if coverage <= 0 || len(items) == 0 {
		return 0
	}
	if coverage > 1 {
		coverage = 1
	}
	sorted := make([]WeightedItem, len(items))
	copy(sorted, items)
	// Hottest-per-byte first: blocks with the highest weight density cover
	// the most dynamic instructions per byte of cache/memory they occupy.
	sort.Slice(sorted, func(i, j int) bool {
		// Compare weight/size as cross products to stay in integers.
		li, lj := sorted[i], sorted[j]
		return li.Weight*lj.Size > lj.Weight*li.Size
	})
	var totalW int64
	for _, it := range sorted {
		totalW += it.Weight
	}
	if totalW == 0 {
		return 0
	}
	target := int64(math.Ceil(coverage * float64(totalW)))
	var accW, accSize int64
	for _, it := range sorted {
		accW += it.Weight
		accSize += it.Size
		if accW >= target {
			break
		}
	}
	return accSize
}
