// Package stats computes the summary statistics the evaluation reports:
// quantiles, means and standard deviations, Pearson correlation, empirical
// CDFs, and simple text histograms for rendering the paper's figures on a
// terminal.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Summary holds the statistics Table I reports per validator.
type Summary struct {
	N                 int
	Min, Q1, Med, Q3  float64
	Max, Mean, StdDev float64
}

// Summarize computes a Summary of xs; it returns a zero Summary for empty
// input.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	var sum, sumSq float64
	for _, x := range s {
		sum += x
		sumSq += x * x
	}
	n := float64(len(s))
	mean := sum / n
	variance := sumSq/n - mean*mean
	if variance < 0 {
		variance = 0
	}
	return Summary{
		N:      len(s),
		Min:    s[0],
		Q1:     Quantile(s, 0.25),
		Med:    Quantile(s, 0.50),
		Q3:     Quantile(s, 0.75),
		Max:    s[len(s)-1],
		Mean:   mean,
		StdDev: math.Sqrt(variance),
	}
}

// Quantile returns the q-quantile (0..1) of sorted xs using linear
// interpolation.
func Quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(sorted) {
		return sorted[lo]
	}
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// QuantileUnsorted sorts a copy and returns the q-quantile.
func QuantileUnsorted(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return Quantile(s, q)
}

// Mean returns the arithmetic mean.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Pearson returns the correlation coefficient of paired samples; the paper
// reports cost↔latency correlation 0.007 across validators (§V-C).
func Pearson(xs, ys []float64) float64 {
	n := len(xs)
	if n == 0 || n != len(ys) {
		return math.NaN()
	}
	mx, my := Mean(xs), Mean(ys)
	var cov, vx, vy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		cov += dx * dy
		vx += dx * dx
		vy += dy * dy
	}
	if vx == 0 || vy == 0 {
		return math.NaN()
	}
	return cov / math.Sqrt(vx*vy)
}

// ECDF is an empirical cumulative distribution function.
type ECDF struct {
	sorted []float64
}

// NewECDF builds an ECDF from samples.
func NewECDF(xs []float64) *ECDF {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return &ECDF{sorted: s}
}

// At returns P(X <= x).
func (e *ECDF) At(x float64) float64 {
	if len(e.sorted) == 0 {
		return 0
	}
	idx := sort.SearchFloat64s(e.sorted, math.Nextafter(x, math.Inf(1)))
	return float64(idx) / float64(len(e.sorted))
}

// Histogram bins samples into equal-width buckets over [min, max].
type Histogram struct {
	Min, Max float64
	Counts   []int
}

// NewHistogram builds a histogram with the given bucket count.
func NewHistogram(xs []float64, buckets int, min, max float64) *Histogram {
	h := &Histogram{Min: min, Max: max, Counts: make([]int, buckets)}
	if max <= min || buckets == 0 {
		return h
	}
	width := (max - min) / float64(buckets)
	for _, x := range xs {
		idx := int((x - min) / width)
		if idx < 0 {
			idx = 0
		}
		if idx >= buckets {
			idx = buckets - 1
		}
		h.Counts[idx]++
	}
	return h
}

// Render draws the histogram as text rows ("lo-hi | #### count").
func (h *Histogram) Render(unit string) string {
	var b strings.Builder
	maxCount := 0
	for _, c := range h.Counts {
		if c > maxCount {
			maxCount = c
		}
	}
	width := (h.Max - h.Min) / float64(len(h.Counts))
	for i, c := range h.Counts {
		lo := h.Min + float64(i)*width
		hi := lo + width
		bar := 0
		if maxCount > 0 {
			bar = c * 40 / maxCount
		}
		fmt.Fprintf(&b, "%8.2f-%8.2f %s | %-40s %d\n", lo, hi, unit, strings.Repeat("#", bar), c)
	}
	return b.String()
}
