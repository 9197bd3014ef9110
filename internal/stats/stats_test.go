package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almost(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestSummarizeKnownValues(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Min != 1 || s.Max != 5 || s.Med != 3 || s.Mean != 3 {
		t.Fatalf("summary: %+v", s)
	}
	if !almost(s.Q1, 2, 1e-9) || !almost(s.Q3, 4, 1e-9) {
		t.Fatalf("quartiles: %+v", s)
	}
	if !almost(s.StdDev, math.Sqrt(2), 1e-9) {
		t.Fatalf("sd = %v", s.StdDev)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	if s := Summarize(nil); s.N != 0 || s.Mean != 0 {
		t.Fatalf("empty summary: %+v", s)
	}
}

func TestQuantileInterpolates(t *testing.T) {
	xs := []float64{0, 10}
	if q := Quantile(xs, 0.5); !almost(q, 5, 1e-9) {
		t.Fatalf("q50 = %v", q)
	}
	if q := Quantile(xs, 0); q != 0 {
		t.Fatalf("q0 = %v", q)
	}
	if q := Quantile(xs, 1); q != 10 {
		t.Fatalf("q1 = %v", q)
	}
}

func TestPearsonKnown(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{2, 4, 6, 8}
	if r := Pearson(xs, ys); !almost(r, 1, 1e-9) {
		t.Fatalf("perfect corr = %v", r)
	}
	neg := []float64{8, 6, 4, 2}
	if r := Pearson(xs, neg); !almost(r, -1, 1e-9) {
		t.Fatalf("perfect anti-corr = %v", r)
	}
	flat := []float64{5, 5, 5, 5}
	if r := Pearson(xs, flat); !math.IsNaN(r) {
		t.Fatalf("corr with constant = %v, want NaN", r)
	}
}

func TestPearsonIndependentNearZero(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var xs, ys []float64
	for i := 0; i < 10_000; i++ {
		xs = append(xs, rng.Float64())
		ys = append(ys, rng.Float64())
	}
	if r := Pearson(xs, ys); math.Abs(r) > 0.05 {
		t.Fatalf("independent corr = %v", r)
	}
}

func TestECDF(t *testing.T) {
	e := NewECDF([]float64{1, 2, 3, 4})
	if got := e.At(2); !almost(got, 0.5, 1e-9) {
		t.Fatalf("At(2) = %v", got)
	}
	if got := e.At(0); got != 0 {
		t.Fatalf("At(0) = %v", got)
	}
	if got := e.At(4); got != 1 {
		t.Fatalf("At(4) = %v", got)
	}
	if got := e.At(2.5); !almost(got, 0.5, 1e-9) {
		t.Fatalf("At(2.5) = %v", got)
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram([]float64{0.5, 1.5, 1.6, 9.9, -3, 42}, 10, 0, 10)
	total := 0
	for _, c := range h.Counts {
		total += c
	}
	if total != 6 {
		t.Fatalf("total = %d", total)
	}
	if h.Counts[0] != 2 { // 0.5 and the clamped -3
		t.Fatalf("bucket 0 = %d", h.Counts[0])
	}
	if h.Counts[1] != 2 {
		t.Fatalf("bucket 1 = %d", h.Counts[1])
	}
	if h.Counts[9] != 2 { // 9.9 and the clamped 42
		t.Fatalf("bucket 9 = %d", h.Counts[9])
	}
	if out := h.Render("s"); out == "" {
		t.Fatal("empty render")
	}
}

func TestQuickQuantilesMonotone(t *testing.T) {
	f := func(raw []float64) bool {
		var xs []float64
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		s := Summarize(xs)
		return s.Min <= s.Q1 && s.Q1 <= s.Med && s.Med <= s.Q3 && s.Q3 <= s.Max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
