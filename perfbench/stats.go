package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0 <= q <= 1) of xs by linear
// interpolation between the closest ranks of the sorted sample (the
// "inclusive" definition: quantile(0) is the minimum, quantile(1) the
// maximum). It returns NaN for an empty sample and leaves xs unchanged.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// median is quantile(xs, 0.5).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// sum adds xs.
func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// ratio is a/b, or 0 when b is 0: the benchmark reports a layer that did
// no work on a workload (gravity on a gravity-free box) as 0 rather than
// NaN, which JSON cannot carry.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
