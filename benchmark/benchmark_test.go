package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// shrunk returns w at roughly 1/50 of its offered load: windows shortened
// (rates unchanged but for outbound-*, so each regime survives), drains
// kept long enough for the protocol's fixed latencies.
func shrunk(w *workloadSpec) *workloadSpec {
	c := *w
	c.phases = nil
	for _, ph := range w.phases {
		ph.window /= 50
		if floor := time.Duration(float64(20*time.Second) / ph.rate); ph.window < floor {
			ph.window = floor // at least ~20 transfers
		}
		if ph.overload && ph.drain > 0 {
			// outbound-*: sustained_pps_virtual needs deliveries inside the
			// window, and a packet takes 4 s; latency is flat in the rate, so
			// the same transfers are spread over 10 s instead.
			ph.rate *= ph.window.Seconds() / 10
			ph.window = 10 * time.Second
		}
		if ph.drain > 0 {
			ph.drain = 10 * time.Minute
		} else {
			ph.window = max(ph.window, 3*time.Minute) // long enough for first deliveries
		}
		c.phases = append(c.phases, ph)
	}
	return &c
}

func TestWorkloadsCompleteAndConserve(t *testing.T) {
	emitted := make(map[string]bool) // count metrics some workload produced
	defer func() {
		for _, m := range countMetrics {
			if !emitted[m.name] && !t.Failed() {
				t.Errorf("no workload emits the count metric %s", m.name)
			}
		}
	}()
	for i := range workloads {
		w := shrunk(&workloads[i])
		t.Run(w.name, func(t *testing.T) {
			flushSigCache()
			p := runPass(w, 1, 0, true, t.TempDir(), nil)
			if p.Panic != "" {
				t.Fatalf("pass died: %s", p.Panic)
			}
			if len(p.Violations) > 0 {
				t.Fatalf("conservation violated: %v", p.Violations)
			}
			for k := range p.Virtual {
				emitted[k] = true
			}
			if p.Attempted == 0 || p.Failed != 0 {
				t.Fatalf("attempted %d, failed %d", p.Attempted, p.Failed)
			}
			if p.Delivered == 0 || p.Virtual["latency_p50_virtual_s"] <= 0 {
				t.Fatalf("nothing measured: delivered %d, p50 %v", p.Delivered, p.Virtual["latency_p50_virtual_s"])
			}
			for _, m := range endToEnd {
				v, ok := p.Host[m.name]
				if !ok {
					v, ok = p.Virtual[m.name]
				}
				if !ok || v <= 0 {
					t.Errorf("%s = %v, want > 0", m.name, v)
				}
			}
			// Same seed, same pass: the simulator must repeat itself exactly.
			flushSigCache()
			q := runPass(w, 1, 0, true, t.TempDir(), nil)
			if problems := determinismProblems(p, q); len(problems) > 0 {
				t.Fatalf("not deterministic: %v", problems)
			}
			// Another seed changes the inputs and must still pass every check.
			s := runPass(w, 2, 0, true, t.TempDir(), nil)
			if s.Panic != "" || s.Failed != 0 || len(s.Violations) > 0 {
				t.Fatalf("seed 2: failed %d, violations %v, panic %q", s.Failed, s.Violations, s.Panic)
			}
			if s.Fingerprint == p.Fingerprint {
				t.Fatal("seed 2 generated the same inputs as seed 1")
			}
		})
	}
}

func TestTracedPassFoldsProfileAndStages(t *testing.T) {
	w := shrunk(workloadByName("outbound-burst"))
	rec := newSpanRecorder()
	p := runPass(w, 1, 0, true, t.TempDir(), rec)
	if p.Panic != "" {
		t.Fatal(p.Panic)
	}
	var sum float64
	for _, l := range cpuLayers {
		sum += p.Traced["cpu."+l+".share"]
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("cpu shares sum to %v, want 1", sum)
	}
	if p.Traced["stage.commit_to_finalise_s"] <= 0 || p.Traced["stage.pickup_to_recv_s"] <= 0 {
		t.Errorf("stage medians missing: %v", p.Traced)
	}
	for _, m := range traceMetrics {
		if _, ok := p.Traced[m.name]; !ok && m.name != "trace.overhead_pct" {
			t.Errorf("the traced pass does not emit %s", m.name)
		}
	}
	names := make(map[string]bool)
	for _, s := range rec.spans {
		names[s.Name] = true
		if s.EndUS < s.StartUS {
			t.Fatalf("span %q ends before it starts", s.Name)
		}
	}
	for _, want := range []string{"core.NewNetwork+draw", "inject", "net.Run", "SnapshotTelemetry"} {
		if !names[want] {
			t.Errorf("no %q span recorded", want)
		}
	}
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := rec.write(path, "test"); err != nil {
		t.Fatal(err)
	}
}

func TestLayerDriversMeasureEveryMetric(t *testing.T) {
	for _, name := range []string{"mesh-line-chaos", "outbound-disk"} {
		w := shrunk(workloadByName(name))
		values, problems := runLayerDrivers(w, 1, t.TempDir(), 0, nil)
		if len(problems) > 0 {
			t.Fatalf("%s: %v", name, problems)
		}
		for _, d := range layerDrivers {
			if values[d.metric] <= 0 {
				t.Errorf("%s: %s = %v, want > 0", name, d.metric, values[d.metric])
			}
		}
	}
}

func TestCrashContainment(t *testing.T) {
	err := contain(time.Minute, func() error { panic("boom") })
	if err == nil || !strings.HasPrefix(err.Error(), "panic: boom") || !strings.Contains(err.Error(), "goroutine") {
		t.Fatalf("panic not contained with its stack: %v", err)
	}
	err = contain(20*time.Millisecond, func() error { select {} })
	if err == nil || !strings.HasPrefix(err.Error(), "watchdog") {
		t.Fatalf("hang not contained: %v", err)
	}
	if err := contain(time.Minute, func() error { return nil }); err != nil {
		t.Fatal(err)
	}
	// A pass that dies counts every attempt as failed.
	w := shrunk(workloadByName("outbound-disk"))
	p := runPass(w, 1, 0, true, filepath.Join(t.TempDir(), "missing"), nil)
	if p.Panic == "" || p.Attempted == 0 || p.Failed != p.Attempted {
		t.Fatalf("dead pass: panic %q, failed %d of %d", p.Panic, p.Failed, p.Attempted)
	}
}

func TestConservationCheckerCatchesVoucherMismatch(t *testing.T) {
	ok := ledger{flow: "ch0", admitted: 3, admittedTokens: 60, hopEscrow: []uint64{60},
		vouchers: 60, delivered: 3, deliveredTokens: 60, acked: 3}
	if v := ok.violations(true); len(v) != 0 {
		t.Fatalf("balanced ledger flagged: %v", v)
	}
	cases := map[string]func(*ledger){
		"vouchers":         func(l *ledger) { l.vouchers++ },
		"hop 0 escrow":     func(l *ledger) { l.hopEscrow[0]-- },
		"duplicate":        func(l *ledger) { l.duplicates = 1 },
		"error ack":        func(l *ledger) { l.errorAcks = 1 },
		"stranded":         func(l *ledger) { l.stranded = 5 },
		"later hop grows":  func(l *ledger) { l.hopEscrow = []uint64{60, 61} },
		"delivered > held": func(l *ledger) { l.hopEscrow = []uint64{60, 40} },
	}
	for name, corrupt := range cases {
		l := ok
		l.hopEscrow = append([]uint64(nil), ok.hopEscrow...)
		corrupt(&l)
		if v := l.violations(true); len(v) == 0 {
			t.Errorf("%s: corruption not caught", name)
		}
	}
	// Backlog is not a violation while a phase is still in flight.
	inflight := ledger{flow: "g>c", admitted: 3, admittedTokens: 60, hopEscrow: []uint64{60, 40, 20},
		vouchers: 20, delivered: 1, deliveredTokens: 20}
	if v := inflight.violations(false); len(v) != 0 {
		t.Errorf("in-flight backlog flagged: %v", v)
	}
	if v := inflight.violations(true); len(v) == 0 {
		t.Error("undrained hops accepted after a drain")
	}
}

func TestSupportedTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{0, 0.5}, {99, 0.5}, {100, 0.90}, {199, 0.90}, {200, 0.95}, {999, 0.95}, {1000, 0.99}, {9999, 0.99}, {10000, 0.999}} {
		if got := supportedTail(c.n); got != c.want {
			t.Errorf("supportedTail(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if q1, q3 := quartiles(xs); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	if m := median(xs); m != 5.5 {
		t.Errorf("median = %v, want 5.5", m)
	}
}

func TestVerdicts(t *testing.T) {
	wall := metricSpec{name: "wall_us_per_packet", better: "lower", bound: 0.10}
	steady := func(v float64) metricValue {
		return metricValue{Value: v, Runs: []float64{v * 0.99, v, v * 1.01}, Q1: v * 0.99, Q3: v * 1.01}
	}
	noisy := func(v float64) metricValue {
		return metricValue{Value: v, Runs: []float64{v * 0.8, v, v * 1.2}, Q1: v * 0.8, Q3: v * 1.2}
	}
	for _, c := range []struct {
		name string
		m    metricSpec
		a, b metricValue
		want string
	}{
		{"within bound", wall, steady(100), steady(105), "ok"},
		{"beyond bound", wall, steady(100), steady(120), "regression"},
		{"noise hides it", wall, noisy(100), noisy(120), "unresolved"},
		{"noisy but clear of overlap", wall, noisy(100), noisy(200), "regression"},
		{"higher is better", metricSpec{better: "higher", bound: 0.03}, metricValue{Value: 1.0}, metricValue{Value: 0.9}, "regression"},
		{"exact metric improved", metricSpec{better: "lower", bound: 0.05}, metricValue{Value: 60}, metricValue{Value: 40}, "ok"},
		{"floor covers a tiny median", metricSpec{better: "lower", bound: 0.25, floor: 0.020}, metricValue{Value: 0.016}, metricValue{Value: 0.030}, "ok"},
		{"no lower ladder step", metricSpec{better: "higher"}, metricValue{Value: 1}, metricValue{Value: 0.5}, "regression"},
	} {
		if got := verdict(c.m, c.a, c.b); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareAgainstItself(t *testing.T) {
	doc := resultsDoc{Workloads: map[string]*workloadResults{}}
	for i := range workloads {
		u := &runResult{Metrics: map[string]metricValue{}}
		for _, m := range endToEnd {
			u.Metrics[m.name] = metricValue{Value: 1, Unit: m.unit}
		}
		l := &runResult{Metrics: map[string]metricValue{}}
		for _, m := range perLayer() {
			l.Metrics[m.name] = metricValue{Value: 1, Unit: m.unit}
		}
		doc.Workloads[workloads[i].name] = &workloadResults{EndToEnd: u, PerLayer: l}
	}
	buf, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "r.json")
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if code := compareFiles(path, path, &out); code != 0 {
		t.Fatalf("a file regressed against itself:\n%s", out.String())
	}
	if strings.Contains(out.String(), "  changed\n") || strings.Contains(out.String(), "unresolved") {
		t.Fatalf("self-comparison not clean:\n%s", out.String())
	}
}

func TestPprofFoldAttributesToInnermostLayer(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"crypto/sha256.block", "repro/internal/cryptoutil.HashTagged", "repro/internal/trie.(*Trie).Set", "repro/internal/ibc.(*Store).Set"}, "cryptoutil"},
		{[]string{"runtime.mallocgc", "repro/internal/trie.(*Trie).Set", "repro/internal/ibc.(*Store).Set"}, "trie"},
		{[]string{"crypto/ed25519.Verify", "repro/internal/lightclient/tendermint.(*Client).Update"}, "lightclient"},
		{[]string{"runtime.gcBgMarkWorker"}, "runtime_gc"},
		{[]string{"bytes.IndexByte", "main.tagOf", "repro/internal/telemetry.(*Bus).Publish"}, "other"},
		{[]string{"encoding/json.Marshal", "repro/internal/transfer.(*PacketData).Marshal"}, "other"},
	} {
		if got := layerOfStack(c.stack); got != c.want {
			t.Errorf("%v → %s, want %s", c.stack, got, c.want)
		}
	}
}

// TestNamesMatchBenchmarkJSON holds the committed BENCHMARK.json to the
// code's name tables, and the tables to the driver contract's limits.
func TestNamesMatchBenchmarkJSON(t *testing.T) {
	committed, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(committed, benchmarkJSON()) {
		t.Fatal("BENCHMARK.json differs from the code's tables: go run ./benchmark -spec > BENCHMARK.json")
	}
	if len(committed) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(committed))
	}
	var doc benchmarkDoc
	dec := json.NewDecoder(bytes.NewReader(committed))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}

	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	metric := func(m docLayerMetric) {
		if !nameRE.MatchString(m.Name) || seen[m.Name] {
			t.Errorf("metric name %q breaks the pattern or is used twice", m.Name)
		}
		seen[m.Name] = true
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q breaks the pattern", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better = %q", m.Name, m.Better)
		}
	}
	if n := len(doc.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, contract allows 2 to 8", n)
	}
	for _, w := range doc.Workloads {
		if !nameRE.MatchString(w.Name) || seen[w.Name] {
			t.Errorf("workload name %q breaks the pattern or is used twice", w.Name)
		}
		seen[w.Name] = true
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if n := len(doc.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, contract allows 1 to 16", n)
	}
	for _, m := range doc.EndToEnd {
		metric(m.docLayerMetric)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if m := doc.EndToEnd[0]; m.Name != "setup_s" || m.Unit != "s" || m.Better != "lower" {
		t.Error("end_to_end must carry setup_s in seconds, lower is better")
	}
	if n := len(doc.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, contract allows 1 to 128", n)
	}
	for _, m := range doc.PerLayer {
		metric(m)
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", doc.RunSeconds)
	}
}
