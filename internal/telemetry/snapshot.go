package telemetry

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/stats"
)

// HistogramSnapshot is an exported histogram: the full sample stream in
// insertion order plus its running sum.
type HistogramSnapshot struct {
	Samples []float64
	Sum     float64
}

// Count returns the number of samples.
func (h HistogramSnapshot) Count() int { return len(h.Samples) }

// Quantile returns the q-quantile of the snapshot with linear
// interpolation between order statistics (NaN when empty).
func (h HistogramSnapshot) Quantile(q float64) float64 {
	if len(h.Samples) == 0 {
		return math.NaN()
	}
	return stats.QuantileUnsorted(h.Samples, q)
}

// Mean returns the sample mean (NaN when empty).
func (h HistogramSnapshot) Mean() float64 {
	if len(h.Samples) == 0 {
		return math.NaN()
	}
	return h.Sum / float64(len(h.Samples))
}

// Snapshot is a consistent point-in-time export of a registry (and, via
// Telemetry.Snapshot, the bus counters and packet traces).
type Snapshot struct {
	Counters   map[string]uint64
	Gauges     map[string]int64
	Histograms map[string]HistogramSnapshot
	Bus        BusStats
	Traces     []Trace
}

// Snapshot exports every registered metric.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   make(map[string]uint64),
		Gauges:     make(map[string]int64),
		Histograms: make(map[string]HistogramSnapshot),
	}
	if r == nil {
		return s
	}
	r.mu.RLock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	histograms := make(map[string]*Histogram, len(r.histograms))
	for k, v := range r.histograms {
		histograms[k] = v
	}
	r.mu.RUnlock()

	for k, c := range counters {
		s.Counters[k] = c.Value()
	}
	for k, g := range gauges {
		s.Gauges[k] = g.Value()
	}
	for k, h := range histograms {
		s.Histograms[k] = HistogramSnapshot{Samples: h.Samples(), Sum: h.Sum()}
	}
	return s
}

// Counter returns a counter's value (0 if absent).
func (s Snapshot) Counter(name string) uint64 { return s.Counters[name] }

// Gauge returns a gauge's value (0 if absent).
func (s Snapshot) Gauge(name string) int64 { return s.Gauges[name] }

// HistogramSamples returns a histogram's sample stream in insertion order
// (nil if absent).
func (s Snapshot) HistogramSamples(name string) []float64 {
	return s.Histograms[name].Samples
}

// Trace returns the trace for key and whether it exists.
func (s Snapshot) Trace(key string) (Trace, bool) {
	for _, tr := range s.Traces {
		if tr.Key == key {
			return tr, true
		}
	}
	return Trace{}, false
}

// Render formats the snapshot as deterministic, diff-friendly text: every
// section is sorted by name.
func (s Snapshot) Render() string {
	var b strings.Builder
	b.WriteString("telemetry snapshot\n")

	if len(s.Counters) > 0 {
		b.WriteString("counters:\n")
		for _, k := range sortedKeys(s.Counters) {
			fmt.Fprintf(&b, "  %-40s %d\n", k, s.Counters[k])
		}
	}
	if len(s.Gauges) > 0 {
		b.WriteString("gauges:\n")
		for _, k := range sortedKeys(s.Gauges) {
			fmt.Fprintf(&b, "  %-40s %d\n", k, s.Gauges[k])
		}
	}
	if len(s.Histograms) > 0 {
		b.WriteString("histograms:\n")
		for _, k := range sortedKeys(s.Histograms) {
			h := s.Histograms[k]
			if h.Count() == 0 {
				fmt.Fprintf(&b, "  %-40s n=0\n", k)
				continue
			}
			fmt.Fprintf(&b, "  %-40s n=%d mean=%.3f p50=%.3f p95=%.3f max=%.3f\n",
				k, h.Count(), h.Mean(), h.Quantile(0.5), h.Quantile(0.95), h.Quantile(1))
		}
	}
	if s.Bus.Published > 0 || s.Bus.Subscribers > 0 {
		fmt.Fprintf(&b, "events: published=%d delivered=%d dropped=%d subscribers=%d\n",
			s.Bus.Published, s.Bus.Delivered, s.Bus.Dropped, s.Bus.Subscribers)
	}
	if len(s.Traces) > 0 {
		complete := 0
		for _, tr := range s.Traces {
			if _, acked := tr.Span(StageAck); acked {
				complete++
			}
		}
		fmt.Fprintf(&b, "traces: %d packets, %d acked\n", len(s.Traces), complete)
	}
	return b.String()
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
