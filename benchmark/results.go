package main

import (
	"fmt"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/cryptoutil"
)

// runConfig is what the command line fixes for every run.
type runConfig struct {
	seed    int64
	seconds float64 // keep adding passes until this much host time was measured
	repeats int     // minimum untraced passes
	scratch string  // directory for WAL stores
}

// metricValue is one reported metric. Host-time metrics are the median of
// Runs (one value per pass); virtual-time metrics and counts have no spread
// for a seed and pass list.
type metricValue struct {
	Value float64   `json:"value"`
	Unit  string    `json:"unit"`
	Clock string    `json:"clock"` // "virtual" or "host"
	Runs  []float64 `json:"runs,omitempty"`
	Q1    float64   `json:"q1,omitempty"`
	Q3    float64   `json:"q3,omitempty"`
}

// runResult is one run of one workload: several untraced passes
// (end-to-end metrics) or the traced run (per-layer metrics).
type runResult struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Traced    bool                   `json:"traced"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Problems  []string               `json:"problems,omitempty"`
	Metrics   map[string]metricValue `json:"metrics"`
	Passes    []*passResult          `json:"passes"`
	// LatencySamples counts the reference-phase latencies behind the
	// latency metrics, all passes together; LatencyTail is the highest
	// percentile that many samples support (at least ten beyond it).
	LatencySamples int     `json:"latency_samples,omitempty"`
	LatencyTail    float64 `json:"latency_tail,omitempty"`
	TraceFile      string  `json:"trace_file,omitempty"`

	hung bool
}

type workloadResults struct {
	Why      string     `json:"why"`
	EndToEnd *runResult `json:"end_to_end"`
	PerLayer *runResult `json:"per_layer"`
}

// resultsDoc is benchmark/out/results.json.
type resultsDoc struct {
	Env       env                         `json:"env"`
	Seed      int64                       `json:"seed"`
	Seconds   float64                     `json:"seconds"`
	Repeats   int                         `json:"repeats"`
	Workloads map[string]*workloadResults `json:"workloads"`
}

// clockOf names a metric's clock. Besides the *_virtual* names, everything
// derived from the simulation alone is on the virtual clock and exact for a
// seed: the telemetry counts, the per-packet stage spans, host fees, the
// SLO rate and the failure share.
func clockOf(name string) string {
	if strings.Contains(name, "_virtual") || strings.HasPrefix(name, "stage.") {
		return "virtual"
	}
	switch name {
	case "host_cost_cents_per_packet", "slo_rate_pps", "failed_share":
		return "virtual"
	}
	for _, m := range countMetrics {
		if m.name == name {
			return "virtual"
		}
	}
	return "host"
}

// absorb adds a pass to the run's totals and problems.
func (r *runResult) absorb(p *passResult) {
	r.Passes = append(r.Passes, p)
	r.Attempted += p.Attempted
	r.Failed += p.Failed
	if p.Panic != "" {
		r.Problems = append(r.Problems, "pass died: "+p.Panic)
		r.hung = r.hung || strings.HasPrefix(p.Panic, "watchdog")
	}
	for _, v := range p.Violations {
		r.Problems = append(r.Problems, fmt.Sprintf("seed %d: %s", p.Seed, v))
	}
}

// untracedRun measures the end-to-end metrics: passes on distinct
// sub-seeds of the run's seed until both the minimum pass count and the
// measuring time are reached. Metrics are medians over the passes, the
// tail latency included: a stall on a lossy link delays a cluster of
// packets at once, so one unlucky pass would move the p99 of the pooled
// sample but cannot move the median of per-pass p99s. The p50 is robust
// to such clusters by itself and is taken over the pooled sample, which
// uses every latency the run drew.
func untracedRun(cfg runConfig, w *workloadSpec) *runResult {
	r := &runResult{Workload: w.name, Seed: cfg.seed, Metrics: map[string]metricValue{}}
	start := time.Now()
	for pass := 0; pass < cfg.repeats || time.Since(start).Seconds() < cfg.seconds; pass++ {
		p := runPass(w, cfg.seed, pass, false, cfg.scratch, nil)
		r.absorb(p)
		if p.Panic != "" {
			break
		}
	}
	var latencies []float64
	perPass := make(map[string][]float64)
	for _, p := range r.Passes {
		if p.Panic != "" {
			continue
		}
		latencies = append(latencies, p.latencies...)
		for _, m := range []map[string]float64{p.Host, p.Virtual} {
			for k, v := range m {
				perPass[k] = append(perPass[k], v)
			}
		}
	}
	for _, m := range endToEnd {
		mv := metricValue{Value: median(perPass[m.name]), Unit: m.unit, Clock: clockOf(m.name)}
		if m.name == "latency_p50_virtual_s" {
			mv.Value = median(latencies)
		}
		if mv.Clock == "host" {
			mv.Runs = perPass[m.name]
			mv.Q1, mv.Q3 = quartiles(mv.Runs)
		}
		r.Metrics[m.name] = mv
	}
	r.LatencySamples = len(latencies)
	r.LatencyTail = supportedTail(len(latencies))
	r.Correct = len(r.Problems) == 0 && r.Failed == 0
	return r
}

// tracedRun measures the per-layer metrics: one untraced pass and one
// traced pass on the same sub-seed (which must agree on every virtual
// metric, count and ledger — the determinism check — and whose wall-time
// ratio is the tracing overhead), then the layer drivers on the
// workload's own inputs.
func tracedRun(cfg runConfig, w *workloadSpec) *runResult {
	r := &runResult{Workload: w.name, Seed: cfg.seed, Traced: true, Metrics: map[string]metricValue{}}
	start := time.Now()
	flushSigCache()
	plain := runPass(w, cfg.seed, 0, true, cfg.scratch, nil)
	r.absorb(plain)
	rec := newSpanRecorder()
	traced := plain
	if plain.Panic == "" {
		flushSigCache()
		traced = runPass(w, cfg.seed, 0, true, cfg.scratch, rec)
		r.absorb(traced)
	}
	values := make(map[string]float64)
	if traced.Panic == "" {
		r.Problems = append(r.Problems, determinismProblems(plain, traced)...)
		for k, v := range plain.Virtual {
			values[k] = v
		}
		for k, v := range traced.Traced {
			values[k] = v
		}
		values["recover_s"] = plain.Host["recover_s"]
		values["trace.overhead_pct"] = 100 * (traced.Host["wall_us_per_packet"]/plain.Host["wall_us_per_packet"] - 1)
	}
	values["failed_share"] = float64(r.Failed) / float64(max(r.Attempted, 1))

	if !r.hung {
		budget := max(cfg.seconds-time.Since(start).Seconds(), cfg.seconds/4, 2)
		layers, problems := runLayerDrivers(w, cfg.seed, cfg.scratch, time.Duration(budget*float64(time.Second)), rec)
		r.Problems = append(r.Problems, problems...)
		for k, v := range layers {
			values[k] = v
		}
	}
	for _, m := range perLayer() {
		r.Metrics[m.name] = metricValue{Value: values[m.name], Unit: m.unit, Clock: clockOf(m.name)}
	}
	r.TraceFile = filepath.Join(outDir, "trace-"+w.name+".json")
	if err := rec.write(r.TraceFile, fmt.Sprintf("%s/seed%d", w.name, cfg.seed)); err != nil {
		r.Problems = append(r.Problems, "trace file: "+err.Error())
	}
	r.Correct = len(r.Problems) == 0 && r.Failed == 0
	return r
}

// flushSigCache fills the process-wide signature cache with throw-away
// triples. Without it the replay of a pass would find every signature of
// the first pass already verified: its counts would differ and its wall
// time would flatter the tracing overhead. Every flush uses fresh triples,
// so none of them is a hit that leaves older entries in place.
func flushSigCache() {
	v := cryptoutil.DefaultBatchVerifier()
	key := cryptoutil.GenerateKey("benchmark/flush")
	tasks := make([]cryptoutil.VerifyTask, v.Stats().Cap)
	flushes++
	for i := range tasks {
		h := cryptoutil.HashUint64('F', flushes<<32|uint64(i))
		tasks[i] = cryptoutil.HashTask(key.Public(), h, key.SignHash(h))
	}
	v.VerifyAll(tasks)
}

var flushes uint64

// determinismProblems compares two passes of one (workload, seed): the
// simulator is deterministic, so ledgers, virtual-time metrics and counts
// must be identical whatever the host did.
func determinismProblems(a, b *passResult) []string {
	var out []string
	if a.Fingerprint != b.Fingerprint {
		out = append(out, fmt.Sprintf("determinism: fingerprints differ\n  %s\n  %s", a.Fingerprint, b.Fingerprint))
	}
	keys := make([]string, 0, len(a.Virtual))
	for k := range a.Virtual {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if a.Virtual[k] != b.Virtual[k] {
			out = append(out, fmt.Sprintf("determinism: %s is %v, then %v on the same seed", k, a.Virtual[k], b.Virtual[k]))
		}
	}
	return out
}
