package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median returns the middle value of xs (mean of the two middle values for
// an even count); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// minOf returns the smallest value of xs; 0 for an empty slice.
func minOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		m = math.Min(m, x)
	}
	return m
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// tailPercentile returns the highest whole percentile that still leaves at
// least ten samples beyond it: p66 at 30 samples, p96 at 300, p99 at 2000.
// Below 20 samples no percentile above the median qualifies, so the tail
// degrades to the median.
func tailPercentile(n int) int {
	if n < 20 {
		return 50
	}
	return 100 * (n - 10) / n
}

// percentile returns the nearest-rank p-th percentile of xs: the smallest
// sample with at least p% of the samples at or below it, so n - ceil(p*n/100)
// samples lie beyond it. p = 50 returns the median proper.
func percentile(xs []float64, p int) float64 {
	if len(xs) == 0 {
		return 0
	}
	if p == 50 {
		return median(xs)
	}
	s := sorted(xs)
	rank := (p*len(s) + 99) / 100
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// quartiles returns the first quartile, median and third quartile of xs by
// the exclusive method, the one Python's statistics.quantiles(xs, n=4)
// uses, so a spread computed here equals the one the acceptance procedure
// computes. Fewer than two samples have no spread: all three are the value.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return xs[0], xs[0], xs[0]
	}
	s := sorted(xs)
	at := func(i int) float64 {
		// Position i*(n+1)/4 in 1-based order statistics; the neighbour
		// index is clamped to the sample range and the weight taken after
		// clamping, so tiny samples extrapolate exactly as Python does.
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(2), at(3)
}

// calm holds a run's time metrics, each read off the window of the run that
// was disturbed least.
type calm struct {
	p50        float64 // lowest window median, ms
	tail       float64 // lowest window maximum, ms
	throughput float64 // highest window insts / wall, 10^6 inst/s
}

// calmest cuts a run's sweeps, in the order they ran, into windows of w
// consecutive sweeps and reports the best window for each metric: its
// median wall, its slowest sweep, and its instructions over its wall.
// Interference from the rest of a shared host only ever adds time, and it
// comes in bursts, so the best window is the one the host disturbed least;
// what the program itself costs, its collector included, is in every
// window, so a slower program moves the best window too. Sweeps past the
// last whole window join none; fewer than w sweeps make one window.
func calmest(wallsMS, insts []float64, w int) calm {
	n := len(wallsMS)
	if n == 0 {
		return calm{}
	}
	w = max(1, min(w, n))
	c := calm{p50: math.Inf(1), tail: math.Inf(1)}
	for i := 0; i+w <= n; i += w {
		win := wallsMS[i : i+w]
		var wall, work float64
		for j, ms := range win {
			wall += ms
			work += insts[i+j]
		}
		c.p50 = math.Min(c.p50, median(win))
		c.tail = math.Min(c.tail, percentile(win, 100))
		c.throughput = math.Max(c.throughput, work/1e3/wall)
	}
	return c
}
