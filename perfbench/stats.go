package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a percentile before
// the benchmark reports it: a p90 needs 100 samples, a p99 1000.
const minBeyond = 10

// ladder lists the percentiles a tail may be reported at, lowest first.
var ladder = []float64{50, 90, 99, 99.9}

// rankOf is the 1-based nearest-rank index of percentile p among n
// sorted samples. The tolerance keeps float rounding (99.9×1000 is
// not exactly 99900) from bumping an exact rank.
func rankOf(p float64, n int) int {
	r := int(math.Ceil(p*float64(n)/100 - 1e-9))
	if r < 1 {
		r = 1
	}
	return r
}

// percentile returns the nearest-rank p-th percentile of samples. It
// fails when fewer than minBeyond samples lie beyond it, so a class
// too small for its named percentile is an error, never a quiet
// guess. Failed operations enter as +Inf and so sort beyond every
// limit.
func percentile(samples []float64, p float64) (float64, error) {
	n := len(samples)
	r := rankOf(p, n)
	if n == 0 || n-r < minBeyond {
		return 0, fmt.Errorf("p%g needs at least %d samples, have %d", p, samplesFor(p), n)
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s[r-1], nil
}

// samplesFor is the fewest samples that leave minBeyond beyond p.
func samplesFor(p float64) int {
	n := minBeyond
	for n-rankOf(p, n) < minBeyond {
		n++
	}
	return n
}

// tailPercentile is the highest ladder percentile that has at least
// minBeyond samples beyond it, or 0 when not even the median does.
func tailPercentile(n int) float64 {
	best := 0.0
	for _, p := range ladder {
		if n-rankOf(p, n) >= minBeyond {
			best = p
		}
	}
	return best
}

// median of samples (mean of the middle two for even counts); 0 for
// none. Unlike percentile it has no sample floor: batch passes are
// few and each is a whole workload pass.
func median(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// mean of samples; 0 for none. Batch passes and serve rounds each run
// different inputs (seeds), so their mean is the expected time of one
// pass over the seed distribution, and a steadier estimate of it than
// the median of a handful of unlike passes.
func mean(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range samples {
		t += x
	}
	return t / float64(len(samples))
}

// seedMean is the mean over the seed cycle's slots of each slot's
// mean, where sample k is pass k and ran at slot k mod seedCycle. A
// slot that ran more than once is not weighted more, so a program fast
// enough to fit more passes in a run changes the value, not which
// inputs it averages.
func seedMean(samples []float64) float64 {
	var slots [seedCycle][]float64
	for k, x := range samples {
		slots[k%seedCycle] = append(slots[k%seedCycle], x)
	}
	var means []float64
	for _, s := range slots {
		if len(s) > 0 {
			means = append(means, mean(s))
		}
	}
	return mean(means)
}

// ratio is a/b, or 0 when b is 0 (a layer the workload never crossed).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
