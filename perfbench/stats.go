package main

import (
	"math"
	"sort"
)

// minBeyond is the tail rule: a tail percentile is reported only where at
// least this many samples lie beyond it, so one outlier cannot set it.
const minBeyond = 10

// tailPercentiles are the conventional percentiles a tail is reported at,
// highest first.
var tailPercentiles = []float64{99.99, 99.9, 99, 90}

// dist is a sorted sample of one quantity (latencies in ms, mostly).
type dist []float64

// newDist copies and sorts xs.
func newDist(xs []float64) dist {
	d := append(dist(nil), xs...)
	sort.Float64s(d)
	return d
}

// median is the middle sample, or the mean of the two middle samples;
// 0 for an empty sample.
func (d dist) median() float64 {
	n := len(d)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return d[n/2]
	default:
		return (d[n/2-1] + d[n/2]) / 2
	}
}

// tailIndex returns the percentile the tail of n samples is reported at —
// the highest of tailPercentiles with at least minBeyond samples above
// it — and the index (ascending order) of its nearest-rank sample. ok is
// false when even the lowest has too few samples beyond it; the index is
// then the maximum's.
func tailIndex(n int) (pct float64, idx int, ok bool) {
	for _, p := range tailPercentiles {
		// The epsilon keeps p·n/100 an exact integer rank where it is
		// one (0.999·10000 is 9990.000000000002 in floating point).
		idx := int(math.Ceil(p/100*float64(n)-1e-9)) - 1
		if n-1-idx >= minBeyond {
			return p, idx, true
		}
	}
	return 100, n - 1, false
}

// tail returns the tail sample and the percentile it sits at. Both are 0
// for an empty sample; a sample too small for the rule reports its
// maximum at the 100th percentile.
func (d dist) tail() (value, pct float64) {
	if len(d) == 0 {
		return 0, 0
	}
	pct, i, _ := tailIndex(len(d))
	return d[i], pct
}

// mean is the arithmetic mean; 0 for an empty sample.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// geomean is the geometric mean of positive values; 0 for an empty
// sample or one holding a non-positive value.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}
