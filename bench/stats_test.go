package main

import (
	"math"
	"testing"
)

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// Reference values from statistics.quantiles(values, n=4).
	for _, c := range []struct {
		values []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5}, 1.5, 4.5},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{7}, 7, 7},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
	} {
		s := summarize("s", c.values)
		if math.Abs(s.Q1-c.q1) > 1e-12 || math.Abs(s.Q3-c.q3) > 1e-12 {
			t.Errorf("%v: quartiles %g, %g; want %g, %g", c.values, s.Q1, s.Q3, c.q1, c.q3)
		}
	}
}

func TestTailLeavesTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[n-1-i] = float64(i + 1) // descending: the helper must sort
		}
		return v
	}
	for _, c := range []struct {
		n          int
		value      float64
		percentile float64
	}{
		{0, 0, 0},
		{10, 10, 100}, // no percentile has ten beyond it: the maximum
		{11, 1, 100.0 / 11},
		{100, 90, 90},
		{1000, 990, 99},
	} {
		tl := tailOf(seq(c.n))
		if tl.N != c.n || tl.Value != c.value || math.Abs(tl.Percentile-c.percentile) > 1e-9 {
			t.Errorf("n=%d: tail %+v, want value %g at p%g", c.n, tl, c.value, c.percentile)
		}
		beyond := 0
		for _, x := range seq(c.n) {
			if x > tl.Value {
				beyond++
			}
		}
		if c.n > 10 && beyond != 10 {
			t.Errorf("n=%d: %d samples beyond the tail, want 10", c.n, beyond)
		}
	}
}
