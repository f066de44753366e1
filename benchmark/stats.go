package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0 < p <= 1) of xs by the
// nearest-rank rule, or 0 for an empty sample. xs is sorted in place.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(p*float64(len(xs)))) - 1
	return xs[min(max(rank, 0), len(xs)-1)]
}

// quartiles returns the first and third quartile of xs the way Python's
// statistics.quantiles(xs, n=4) does (the exclusive method), so a spread
// computed here equals the one the driver computes. It needs two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	at := func(k int) float64 {
		j := min(max(k*(n+1)/4, 1), n-1)
		delta := k*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// iqr is the distance between the first and third quartile.
func iqr(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return q3 - q1
}

func median(xs []float64) float64 {
	return percentile(append([]float64(nil), xs...), 0.5)
}

// windowOf returns which of n equal windows of [t0, t1) holds t, or -1.
func windowOf(t, t0, t1 int64, n int) int {
	if t < t0 || t >= t1 {
		return -1
	}
	return int((t - t0) * int64(n) / (t1 - t0))
}
