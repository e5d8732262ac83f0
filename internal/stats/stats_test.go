package stats

import "testing"

func TestHistogram(t *testing.T) {
	h := NewHistogram(10)
	h.Add(0.05, 3) // bucket 0
	h.Add(0.95, 1) // bucket 9
	h.Add(1.0, 2)  // closed top: bucket 9, not out of range
	h.Add(-0.5, 1) // clamped: bucket 0
	h.Add(1.5, 1)  // clamped: bucket 9
	if h.Buckets() != 10 {
		t.Fatalf("buckets=%d", h.Buckets())
	}
	// Weight 8 in all, 4 in each extreme bucket, none between.
	if h.Fraction(0) != 0.5 || h.Fraction(9) != 0.5 || h.Fraction(5) != 0 {
		t.Errorf("fractions: bucket0=%v bucket5=%v bucket9=%v, want 0.5, 0, 0.5", h.Fraction(0), h.Fraction(5), h.Fraction(9))
	}
}

func TestHistogramEmptyFractions(t *testing.T) {
	h := NewHistogram(4)
	for i := 0; i < h.Buckets(); i++ {
		if f := h.Fraction(i); f != 0 {
			t.Errorf("empty histogram Fraction(%d) = %v", i, f)
		}
	}
}

func TestFootprintForCoverage(t *testing.T) {
	items := []WeightedItem{
		{Size: 100, Weight: 900}, // hottest per byte
		{Size: 100, Weight: 90},
		{Size: 100, Weight: 10}, // coldest
	}
	// 90% of the weight (900/1000) is covered by the hottest block alone.
	if got := FootprintForCoverage(items, 0.9); got != 100 {
		t.Errorf("coverage 0.9 = %d, want 100", got)
	}
	// 99% needs the top two.
	if got := FootprintForCoverage(items, 0.99); got != 200 {
		t.Errorf("coverage 0.99 = %d, want 200", got)
	}
	// Full coverage takes everything; >1 clamps.
	if got := FootprintForCoverage(items, 1.5); got != 300 {
		t.Errorf("coverage 1.5 = %d, want 300", got)
	}
	if got := FootprintForCoverage(items, 0); got != 0 {
		t.Errorf("coverage 0 = %d, want 0", got)
	}
	if got := FootprintForCoverage(nil, 0.99); got != 0 {
		t.Errorf("empty items = %d, want 0", got)
	}
	if got := FootprintForCoverage([]WeightedItem{{Size: 10, Weight: 0}}, 0.5); got != 0 {
		t.Errorf("zero total weight = %d, want 0", got)
	}
}
