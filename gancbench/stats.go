package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a percentile before the
// benchmark reports it: a p99 read from 200 samples would be the second
// largest value, not a tail estimate.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile of xs (0 < q ≤ 1): the
// smallest sample with at least ⌈q·n⌉ samples at or below it. It returns 0
// for an empty sample and does not modify xs.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[nearestRank(len(s), q)-1]
}

// nearestRank is the 1-based rank ⌈q·n⌉ of the q-quantile, clamped to [1, n].
func nearestRank(n int, q float64) int {
	// The epsilon absorbs float error in q·n (0.99·1000 = 989.99999…).
	r := int(math.Ceil(q*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// median is the nearest-rank 0.5-quantile.
func median(xs []float64) float64 { return percentile(xs, 0.5) }

// supports reports whether a sample of n values has at least minBeyond
// samples strictly beyond the nearest-rank q-quantile.
func supports(n int, q float64) bool {
	return n > 0 && n-nearestRank(n, q) >= minBeyond
}

// mean returns the arithmetic mean of xs (0 when empty).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
