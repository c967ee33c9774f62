package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty sample). xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(xs)-1)
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

// tailQ is the highest of the usual tail percentiles that leaves at least
// ten samples beyond it, so a tail figure always rests on ten or more
// observations; below 100 samples it is the median.
func tailQ(n int) float64 {
	for _, q := range []float64{0.99, 0.98, 0.95, 0.90} {
		if float64(n)*(1-q) >= 10 {
			return q
		}
	}
	return 0.5
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
