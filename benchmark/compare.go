package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// compareFiles applies every bounded metric's bound to two results.json
// files (a: before, b: after) and prints one verdict per (workload,
// metric); then it lists the virtual-time metrics and counts that differ,
// since a change meant only to speed the simulator must leave all of them
// identical. It returns the exit code: 1 if anything regressed or a file
// is unusable.
func compareFiles(pathA, pathB string, out io.Writer) int {
	a, err := readResults(pathA)
	if err != nil {
		fmt.Fprintf(out, "benchmark: %v\n", err)
		return 1
	}
	b, err := readResults(pathB)
	if err != nil {
		fmt.Fprintf(out, "benchmark: %v\n", err)
		return 1
	}
	names := make([]string, 0, len(a.Workloads))
	for name := range a.Workloads {
		names = append(names, name)
	}
	sort.Strings(names)

	bounded := append(append([]metricSpec(nil), endToEnd...), outcomeMetrics...)
	regressions := 0
	for _, w := range names {
		wa, wb := a.Workloads[w], b.Workloads[w]
		if wb == nil || wa.EndToEnd == nil || wa.PerLayer == nil || wb.EndToEnd == nil || wb.PerLayer == nil {
			fmt.Fprintf(out, "%-16s missing on one side: regression\n", w)
			regressions++
			continue
		}
		for _, m := range bounded {
			ma, okA := lookupMetric(wa, m.name)
			mb, okB := lookupMetric(wb, m.name)
			if !okA || !okB {
				fmt.Fprintf(out, "%-16s %-28s missing on one side: regression\n", w, m.name)
				regressions++
				continue
			}
			v := verdict(m, ma, mb)
			if v == "regression" {
				regressions++
			}
			fmt.Fprintf(out, "%-16s %-28s %12.6g -> %-12.6g %-5s %+7.2f%%  %s\n", w, m.name, ma.Value, mb.Value, m.unit, pctChange(ma.Value, mb.Value), v)
		}
		same, changed := 0, 0
		for _, m := range perLayer() {
			if clockOf(m.name) != "virtual" {
				continue
			}
			va, vb := wa.PerLayer.Metrics[m.name].Value, wb.PerLayer.Metrics[m.name].Value
			if va == vb {
				same++
				continue
			}
			changed++
			fmt.Fprintf(out, "%-16s %-28s %12.6g -> %-12.6g %-5s %+7.2f%%  changed\n", w, m.name, va, vb, m.unit, pctChange(va, vb))
		}
		fmt.Fprintf(out, "%-16s %d virtual-time metrics and counts identical, %d changed\n", w, same, changed)
	}
	if regressions > 0 {
		fmt.Fprintf(out, "%d regression(s)\n", regressions)
		return 1
	}
	return 0
}

func readResults(path string) (*resultsDoc, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc resultsDoc
	if err := json.Unmarshal(buf, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(doc.Workloads) == 0 {
		return nil, fmt.Errorf("%s: no workloads", path)
	}
	return &doc, nil
}

// lookupMetric finds a bounded metric in the run that reports it.
func lookupMetric(w *workloadResults, name string) (metricValue, bool) {
	if m, ok := w.EndToEnd.Metrics[name]; ok {
		return m, true
	}
	m, ok := w.PerLayer.Metrics[name]
	return m, ok
}

func pctChange(a, b float64) float64 {
	if a == 0 {
		if b == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return 100 * (b - a) / math.Abs(a)
}

// verdict judges b against a for one metric.
//
//   - regression: b's value is worse than a's by more than
//     max(bound × |a|, floor);
//   - unresolved: the metric is host time, the run-to-run interquartile
//     range of either side exceeds that allowance, and the two sides' runs
//     overlap, so the medians cannot tell a change from noise;
//   - ok: otherwise. Virtual-time metrics have no spread and compare as
//     they read.
func verdict(m metricSpec, a, b metricValue) string {
	worse := b.Value - a.Value
	if m.better == "higher" {
		worse = -worse
	}
	allowed := math.Max(m.bound*math.Abs(a.Value), m.floor)
	if len(a.Runs) > 1 && len(b.Runs) > 1 {
		spread := math.Max(a.Q3-a.Q1, b.Q3-b.Q1)
		if spread > allowed && overlap(a.Runs, b.Runs) {
			return "unresolved"
		}
	}
	if worse > allowed {
		return "regression"
	}
	return "ok"
}

func overlap(a, b []float64) bool {
	sa, sb := sortedCopy(a), sortedCopy(b)
	return sa[0] <= sb[len(sb)-1] && sb[0] <= sa[len(sa)-1]
}
