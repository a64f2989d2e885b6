package main

import (
	"math"
	"sort"
)

// percentile returns the q-quantile (0 < q ≤ 1) of ascending samples by the
// nearest-rank rule: the smallest sample with at least q of the samples at
// or below it. Empty input yields 0.
func percentile(sorted []uint32, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return float64(sorted[rank-1])
}

// median returns the middle value (mean of the two middle values for an
// even count) without disturbing vals. Empty input yields 0.
func median(vals []float64) float64 {
	n := len(vals)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// spread is (max − min) / median of the per-interval values: how far one
// run's own intervals disagree. A zero median yields 0.
func spread(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	lo, hi := vals[0], vals[0]
	for _, v := range vals[1:] {
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	m := median(vals)
	if m == 0 {
		return 0
	}
	return (hi - lo) / m
}

// estimate is the benchmark's estimator for one metric: the median of its
// per-interval values, with their spread beside it.
type estimate struct {
	Value     float64   `json:"value"`
	Unit      string    `json:"unit"`
	Spread    float64   `json:"spread"`
	Intervals []float64 `json:"intervals,omitempty"`
}

func medianOfIntervals(unit string, vals []float64) estimate {
	return estimate{Value: median(vals), Unit: unit, Spread: spread(vals), Intervals: vals}
}
