package main

import (
	"math"
	"testing"
)

func TestTailIsHighestPercentileWithTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n   int
		pct float64
	}{
		{20, 50}, // below 100 samples no conventional tail percentile qualifies
		{100, 90},
		{999, 90}, // p99 would leave 9 samples beyond
		{1000, 99},
		{2000, 99},
		{10000, 99.9},
		{123456, 99.99},
	} {
		xs := make([]float64, c.n)
		for i := range xs {
			xs[c.n-1-i] = float64(i) // descending input: newDist must sort
		}
		v, pct := newDist(xs).tail()
		beyond := 0
		for _, x := range xs {
			if x > v {
				beyond++
			}
		}
		if c.pct == 50 {
			if pct != 100 || v != float64(c.n-1) {
				t.Errorf("n=%d: tail %v at p%v, want the maximum at p100", c.n, v, pct)
			}
			continue
		}
		if pct != c.pct || beyond < minBeyond {
			t.Errorf("n=%d: tail at p%v with %d samples beyond, want p%v with at least %d", c.n, pct, beyond, c.pct, minBeyond)
		}
		if below := c.n - beyond; float64(below) < c.pct/100*float64(c.n)-1e-9 {
			t.Errorf("n=%d: tail %v has only %d samples at or below it, not p%v", c.n, v, below, c.pct)
		}
	}
}

func TestTailOfSmallSampleIsMaximum(t *testing.T) {
	d := newDist([]float64{3, 1, 2})
	if v, pct := d.tail(); v != 3 || pct != 100 {
		t.Errorf("tail of 3 samples = %v at p%v, want the maximum 3 at p100", v, pct)
	}
	if v, pct := newDist(nil).tail(); v != 0 || pct != 0 {
		t.Errorf("tail of no samples = %v at p%v, want 0", v, pct)
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{5}, 5},
		{[]float64{4, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := newDist(c.xs).median(); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestGeomean(t *testing.T) {
	if got := geomean([]float64{1, 4, 16}); math.Abs(got-4) > 1e-12 {
		t.Errorf("geomean(1,4,16) = %v, want 4", got)
	}
	if got := geomean([]float64{2, 0}); got != 0 {
		t.Errorf("geomean with a zero = %v, want 0", got)
	}
}
