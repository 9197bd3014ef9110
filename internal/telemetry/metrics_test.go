package telemetry

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	if r.Counter("c") != c {
		t.Fatal("registry returned a different counter for the same name")
	}

	g := r.Gauge("g")
	g.Set(7)
	g.Add(-3)
	if g.Value() != 4 {
		t.Fatalf("gauge = %d, want 4", g.Value())
	}
}

func TestNilInstrumentsAreNoOps(t *testing.T) {
	var r *Registry
	c, g, h := r.Counter("x"), r.Gauge("x"), r.Histogram("x")
	c.Inc()
	g.Set(1)
	h.Observe(1)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 {
		t.Fatal("nil instruments must read as zero")
	}
	if empty := (HistogramSnapshot{}); !math.IsNaN(empty.Quantile(0.5)) || !math.IsNaN(empty.Mean()) {
		t.Fatal("an empty histogram's quantile and mean must be NaN")
	}
	s := r.Snapshot()
	if len(s.Counters) != 0 {
		t.Fatal("nil registry snapshot must be empty")
	}
}

// referenceQuantile computes the same linearly interpolated quantile from a
// full sort, used as an oracle against HistogramSnapshot.Quantile.
func referenceQuantile(samples []float64, q float64) float64 {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[n-1]
	}
	pos := q * float64(n-1)
	lo, hi := int(math.Floor(pos)), int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

func TestHistogramQuantileMatchesReferenceSort(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, n := range []int{1, 2, 3, 10, 101, 1000} {
		r := NewRegistry()
		samples := make([]float64, 0, n)
		for i := 0; i < n; i++ {
			v := rng.NormFloat64() * 100
			samples = append(samples, v)
			r.Histogram("h").Observe(v)
		}
		h := r.Snapshot().Histograms["h"]
		for _, q := range []float64{0, 0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 1} {
			got, want := h.Quantile(q), referenceQuantile(samples, q)
			if math.Abs(got-want) > 1e-9 {
				t.Fatalf("n=%d q=%v: got %v, want %v", n, q, got, want)
			}
		}
	}
}

func TestHistogramPreservesInsertionOrder(t *testing.T) {
	h := &Histogram{}
	in := []float64{3, 1, 2, 5, 4}
	for _, v := range in {
		h.Observe(v)
	}
	got := h.Samples()
	if len(got) != len(in) {
		t.Fatalf("len = %d, want %d", len(got), len(in))
	}
	for i := range in {
		if got[i] != in[i] {
			t.Fatalf("sample %d = %v, want %v", i, got[i], in[i])
		}
	}
	if h.Sum() != 15 {
		t.Fatalf("sum = %v, want 15", h.Sum())
	}
	// A snapshot's Quantile must not disturb its stream.
	snap := HistogramSnapshot{Samples: got, Sum: h.Sum()}
	snap.Quantile(0.5)
	if got[0] != 3 {
		t.Fatal("Quantile mutated the recorded sample order")
	}
}

func TestRegistrySnapshot(t *testing.T) {
	r := NewRegistry()
	r.Counter("sent").Add(9)
	r.Gauge("depth").Set(-2)
	r.Histogram("lat").Observe(0.5)
	r.Histogram("lat").Observe(1.5)

	s := r.Snapshot()
	if s.Counter("sent") != 9 || s.Gauge("depth") != -2 {
		t.Fatalf("snapshot scalars wrong: %+v", s)
	}
	hs := s.Histograms["lat"]
	if hs.Count() != 2 || hs.Sum != 2 || hs.Mean() != 1 {
		t.Fatalf("snapshot histogram wrong: %+v", hs)
	}
	if got := s.HistogramSamples("lat"); len(got) != 2 || got[0] != 0.5 {
		t.Fatalf("HistogramSamples = %v", got)
	}
	if s.Counter("absent") != 0 || s.HistogramSamples("absent") != nil {
		t.Fatal("absent metrics must read as zero values")
	}
	if s.Render() == "" {
		t.Fatal("Render returned empty string")
	}
}

// TestRegistryConcurrentAccess validates get-or-create and observation under
// contention; run with -race.
func TestRegistryConcurrentAccess(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				r.Counter("hits").Inc()
				r.Gauge("depth").Add(1)
				r.Histogram("lat").Observe(float64(j))
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("hits").Value(); got != 4000 {
		t.Fatalf("counter = %d, want 4000", got)
	}
	if got := r.Histogram("lat").Count(); got != 4000 {
		t.Fatalf("histogram count = %d, want 4000", got)
	}
}
