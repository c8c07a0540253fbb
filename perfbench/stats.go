package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported percentile.
const minBeyond = 10

// quantile returns the nearest-rank q-quantile (0 < q <= 1) of xs, which it
// sorts in place; 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

// median is the nearest-rank median of xs (sorted in place).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// maxTailPercentile returns the highest whole percentile whose nearest-rank
// value has at least minBeyond samples above it in a sample of n, or 0 when
// no percentile does.
func maxTailPercentile(n int) int {
	for p := 99; p >= 1; p-- {
		if n-(p*n+99)/100 >= minBeyond {
			return p
		}
	}
	return 0
}

// fitLine returns the least-squares intercept and slope of y = a + b*x;
// ok is false when the xs do not vary.
func fitLine(xs, ys []float64) (a, b float64, ok bool) {
	n := float64(len(xs))
	if len(xs) < 2 || len(xs) != len(ys) {
		return 0, 0, false
	}
	var sx, sy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
	}
	mx, my := sx/n, sy/n
	var sxx, sxy float64
	for i := range xs {
		dx := xs[i] - mx
		sxx += dx * dx
		sxy += dx * (ys[i] - my)
	}
	if sxx == 0 {
		return 0, 0, false
	}
	b = sxy / sxx
	return my - b*mx, b, true
}

// fitOrigin returns the least-squares slope of y = b*x through the origin.
func fitOrigin(xs, ys []float64) float64 {
	var sxx, sxy float64
	for i := range xs {
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
	}
	if sxx == 0 {
		return 0
	}
	return sxy / sxx
}
