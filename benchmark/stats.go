package main

import (
	"math"
	"sort"
)

// The benchmark computes its own order statistics rather than borrowing
// internal/stats, so the instrument does not change with the program.

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 for an empty sample).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(xs, n=4) gives them (the exclusive method), which
// is how the driver measures spread.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n < 2 {
		if n == 1 {
			return xs[0], xs[0]
		}
		return 0, 0
	}
	s := sortedCopy(xs)
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// tailPermille are the percentiles a report may name, in thousandths,
// highest last.
var tailPermille = []int{900, 950, 990, 999}

// supportedTail returns the highest of tailPermille (as a quantile) that
// has at least ten samples beyond it in a sample of n, or 0.5 when none
// has: a p99 over 300 samples is three points, not a percentile.
func supportedTail(n int) float64 {
	best := 0.5
	for _, p := range tailPermille {
		if n*(1000-p)/1000 >= 10 {
			best = float64(p) / 1000
		}
	}
	return best
}
