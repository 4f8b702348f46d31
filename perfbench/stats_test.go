package main

import (
	"math"
	"strings"
	"testing"
)

func seq(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = float64(n - i) // reversed, so percentile must sort
	}
	return s
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		p    float64
		need int
	}{{50, 20}, {90, 100}, {99, 1000}, {99.9, 10000}} {
		if got := samplesFor(c.p); got != c.need {
			t.Errorf("samplesFor(%g) = %d, want %d", c.p, got, c.need)
		}
		v, err := percentile(seq(c.need), c.p)
		if err != nil {
			t.Errorf("p%g of %d samples: %v", c.p, c.need, err)
		} else if want := float64(c.need) - float64(minBeyond); v != want {
			t.Errorf("p%g of 1..%d = %v, want %v", c.p, c.need, v, want)
		}
		// One sample fewer must fail loudly, naming what it needs.
		_, err = percentile(seq(c.need-1), c.p)
		if err == nil || !strings.Contains(err.Error(), "needs at least") {
			t.Errorf("p%g of %d samples: err = %v, want a too-few-samples failure", c.p, c.need-1, err)
		}
	}
	if _, err := percentile(nil, 50); err == nil {
		t.Error("p50 of no samples did not fail")
	}
}

func TestTailPercentile(t *testing.T) {
	for n, want := range map[int]float64{0: 0, 19: 0, 20: 50, 99: 50, 100: 90, 999: 90, 1000: 99, 10000: 99.9} {
		if got := tailPercentile(n); got != want {
			t.Errorf("tailPercentile(%d) = %g, want %g", n, got, want)
		}
	}
}

// A failed request enters as +Inf and so lands beyond every limit.
func TestFailuresSortBeyondEveryLimit(t *testing.T) {
	s := seq(100)
	for i := 0; i < 11; i++ {
		s[i] = math.Inf(1)
	}
	v, err := percentile(s, 90)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(v, 1) {
		t.Errorf("p90 with 11 failures of 100 = %v, want +Inf", v)
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median odd = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median even = %v", m)
	}
	if m := median(nil); m != 0 {
		t.Errorf("median empty = %v", m)
	}
}

func TestSeedMeanWeightsSeedsEvenly(t *testing.T) {
	walls := make([]float64, seedCycle)
	for k := range walls {
		walls[k] = float64(k + 1) // slot k costs k+1
	}
	want := seedMean(walls)
	if got := mean(walls); got != want {
		t.Fatalf("one pass per seed: seedMean %v, mean %v", want, got)
	}
	// A faster program fits a ninth pass, at slot 0 again: the plain
	// mean shifts toward slot 0, the per-seed mean does not.
	more := append(append([]float64(nil), walls...), 1)
	if got := seedMean(more); got != want {
		t.Errorf("extra pass at a seed already run moved seedMean from %v to %v", want, got)
	}
	if mean(more) == want {
		t.Error("test does not exercise a reweighted seed mix")
	}
}
