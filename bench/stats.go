package main

import "sort"

// summary condenses repeated measurements of one metric. Quartiles use
// the exclusive method of Python's statistics.quantiles(values, n=4), so
// a spread computed here matches one computed from the same samples by
// that function.
type summary struct {
	Unit   string  `json:"unit"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	N      int     `json:"n"`
}

func summarize(unit string, values []float64) summary {
	s := summary{Unit: unit, N: len(values)}
	if len(values) == 0 {
		return s
	}
	v := sorted(values)
	s.Min, s.Max = v[0], v[len(v)-1]
	s.Median = median(v)
	s.Q1, s.Q3 = quartiles(v)
	return s
}

func sorted(values []float64) []float64 {
	v := append([]float64(nil), values...)
	sort.Float64s(v)
	return v
}

// median of ascending values.
func median(v []float64) float64 {
	n := len(v)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return v[n/2]
	}
	return (v[n/2-1] + v[n/2]) / 2
}

// quartiles of ascending values, by the exclusive method (positions
// i·(n+1)/4, clamped to the sample and interpolated linearly).
func quartiles(v []float64) (q1, q3 float64) {
	n := len(v)
	if n == 1 {
		return v[0], v[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (v[j-1]*(4-delta) + v[j]*delta) / 4
	}
	return q(1), q(3)
}

// tail is the highest nearest-rank percentile of the samples that still
// has at least ten samples beyond it: rank n-10 of n, the value at
// ascending index n-11. With ten samples or fewer no percentile
// qualifies, so the maximum stands in and the percentile reads 100.
type tail struct {
	Value      float64 `json:"value"`
	Percentile float64 `json:"percentile"`
	N          int     `json:"n"`
}

func tailOf(values []float64) tail {
	n := len(values)
	if n == 0 {
		return tail{}
	}
	v := sorted(values)
	if n <= 10 {
		return tail{Value: v[n-1], Percentile: 100, N: n}
	}
	return tail{Value: v[n-11], Percentile: 100 * float64(n-10) / float64(n), N: n}
}
