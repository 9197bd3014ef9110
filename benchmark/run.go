package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/fees"
	"repro/internal/host"
	"repro/internal/ibc"
	"repro/internal/nodestore"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// passWatchdog bounds one pass in host time; a pass that exceeds it is
// reported as failed instead of hanging the benchmark.
const passWatchdog = 150 * time.Second

// recoverProofs is how many historical proofs outbound-disk compares
// across the power cut.
const recoverProofs = 64

// phaseResult is what one phase measured.
type phaseResult struct {
	spec   phaseSpec
	setupS float64

	// The timed region: net.Run over window + drain.
	wallS      float64
	mallocs    uint64
	allocBytes uint64

	offered, delivered int
	deliveredInWindow  int // delivered before the offered window closed
	failed             int // rejected or undelivered after the drain (reference phases), plus violations
	latencies          []float64
	heapRetainedMB     float64
	feesCents          float64
	maxLateS           float64
	violations         []string
	fingerprint        string
	counts             map[string]float64
	stages             map[string]float64
	cpu                map[string]float64
	recoverS           float64
	proofChecks        int
}

// passResult is one pass: every phase of the workload once, each on a
// fresh network, from one seed.
type passResult struct {
	Seed        int64              `json:"seed"`
	Attempted   int                `json:"attempted"`
	Failed      int                `json:"failed"`
	Delivered   int                `json:"delivered"`
	Violations  []string           `json:"violations,omitempty"`
	Panic       string             `json:"panic,omitempty"`
	Fingerprint string             `json:"fingerprint"`
	Virtual     map[string]float64 `json:"virtual"` // *_virtual* metrics and counts: exact for a seed
	Host        map[string]float64 `json:"host"`    // host-time and host-memory metrics of this pass
	Traced      map[string]float64 `json:"traced,omitempty"`
	Steps       []stepResult       `json:"steps,omitempty"`

	latencies []float64
}

// stepResult is one phase's load-ladder row.
type stepResult struct {
	Name           string  `json:"name"`
	RatePPS        float64 `json:"rate_pps"`
	Offered        int     `json:"offered"`
	Delivered      int     `json:"delivered"`
	P50VirtualS    float64 `json:"p50_virtual_s"`
	P99VirtualS    float64 `json:"p99_virtual_s"`
	DeliveredShare float64 `json:"delivered_share"`
}

// plannedAttempts is what a pass attempts: the reference phases' transfers
// plus the proof comparisons. A pass that dies counts all of them failed.
func plannedAttempts(w *workloadSpec) int {
	n := 0
	for _, ph := range w.phases {
		if ph.reference {
			n += ph.transfers()
		}
	}
	if w.disk {
		n += recoverProofs
	}
	return n
}

// runPhase drives one phase: build (timed as set-up), offer the load and
// drain (the timed region), then read the books. A non-nil rec makes it the
// traced pass's: spans, a CPU profile of the timed region, stage medians.
func runPhase(w *workloadSpec, ph phaseSpec, seed int64, scratch string, rec *spanRecorder) (res *phaseResult, err error) {
	endPhase := rec.begin("phase:" + ph.name)
	defer endPhase()

	storeDir := ""
	if w.disk {
		storeDir, err = os.MkdirTemp(scratch, "store-*")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(storeDir)
	}

	sigs0 := cryptoutil.DefaultBatchVerifier().Stats()
	setupStart := time.Now()
	endSetup := rec.begin("core.NewNetwork+draw")
	var pr *phaseRun
	if w.scenario == meshLine {
		pr, err = newMeshPhase(ph, seed)
	} else {
		pr, err = newPairPhase(w, ph, seed, storeDir)
	}
	endSetup()
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer func() {
		if cerr := pr.net.CloseStores(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	res = &phaseResult{spec: ph, offered: len(pr.transfers)}
	res.setupS = time.Since(setupStart).Seconds()

	// Timed region. The collector runs first so a pass does not pay for the
	// previous one's garbage.
	runtime.GC()
	var cpuProf bytes.Buffer
	if rec != nil {
		if err := pprof.StartCPUProfile(&cpuProf); err != nil {
			return nil, err
		}
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	pr.schedule(rec)
	for left := ph.window + ph.drain; left > 0; left -= runSlice {
		end := rec.begin("net.Run")
		pr.net.Run(min(left, runSlice))
		end()
	}
	res.wallS = time.Since(start).Seconds()
	runtime.ReadMemStats(&m1)
	if rec != nil {
		pprof.StopCPUProfile()
		if res.cpu, err = foldCPUProfile(cpuProf.Bytes()); err != nil {
			return nil, err
		}
	}
	res.mallocs = m1.Mallocs - m0.Mallocs
	res.allocBytes = m1.TotalAlloc - m0.TotalAlloc

	end := rec.begin("SnapshotTelemetry")
	snap := pr.net.SnapshotTelemetry()
	end()
	sigs1 := cryptoutil.DefaultBatchVerifier().Stats()

	// Books.
	ledgers := pr.ledgers()
	var fp strings.Builder
	for _, l := range ledgers {
		res.violations = append(res.violations, l.violations(ph.drain > 0)...)
		res.delivered += l.delivered
		fp.WriteString(l.fingerprint())
		fp.WriteByte('|')
	}
	for i := range pr.transfers {
		t := &pr.transfers[i]
		if t.recvAt != unset {
			res.latencies = append(res.latencies, (t.recvAt - t.due).Seconds())
			if t.recvAt <= ph.window {
				res.deliveredInWindow++
			}
		}
		if ph.reference && (t.injectedAt == unset || t.recvAt == unset) {
			res.failed++
		}
	}
	res.failed += len(res.violations)
	res.maxLateS = pr.maxLate.Seconds()
	res.feesCents = fees.Cents(host.Lamports(snap.Counter("host.fees_lamports")))
	res.counts = countsOf(pr, snap, res, sigs0, sigs1)
	fmt.Fprintf(&fp, "p50=%.6f p99=%.6f fees=%d", quantile(res.latencies, 0.5), quantile(res.latencies, 0.99), snap.Counter("host.fees_lamports"))
	res.fingerprint = fp.String()
	if rec != nil {
		res.stages = stageMedians(pr)
	}

	if ph.reference {
		// Retained heap with the network still live: state growth, retained
		// versions, traces and tables, not garbage.
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		res.heapRetainedMB = float64(m.HeapAlloc) / (1 << 20)
	}
	if w.disk {
		if err := powerCut(pr, res, rec); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// powerCut is outbound-disk's epilogue: sample historical proofs, cut the
// power under the guest store, reopen it cold, and require the recovered
// root to be the last finalised one and every sampled proof to come back
// byte-identical.
func powerCut(pr *phaseRun, res *phaseResult, rec *spanRecorder) error {
	st, err := pr.net.GuestState()
	if err != nil {
		return err
	}
	if pe := st.PersistError(); pe != nil {
		res.violations = append(res.violations, "persistence error before the cut: "+pe.Error())
	}
	lf := st.LatestFinalised()
	if lf == nil {
		return errors.New("no finalised block before the power cut")
	}
	// Paths live since the handshake, so every retained height proves them.
	var paths []string
	for _, rt := range pr.net.Channels {
		paths = append(paths,
			ibc.ChannelPath(rt.Spec.GuestPort, rt.GuestChannel),
			ibc.NextSequenceSendPath(rt.Spec.GuestPort, rt.GuestChannel))
	}
	type sample struct {
		version      ibc.Version
		path         string
		value, proof []byte
	}
	var samples []sample
	for h := lf.Block.Height; h > 0 && len(samples) < recoverProofs; h-- {
		entry, err := st.Entry(h)
		if err != nil || !entry.Finalised {
			continue
		}
		ro, err := st.SnapshotAt(h)
		if err != nil {
			continue // pruned
		}
		for _, p := range paths {
			val, proof, err := ro.ProveMembership(p)
			if err != nil {
				return fmt.Errorf("pre-cut proof of %q at height %d: %w", p, h, err)
			}
			samples = append(samples, sample{ro.Version(), p, val, proof})
		}
	}
	samples = samples[:min(len(samples), recoverProofs)]
	res.proofChecks = recoverProofs
	mismatches := recoverProofs - len(samples) // a proof that could not be sampled cannot match

	disk, ok := pr.net.GuestNodeStore.(*nodestore.Disk)
	if !ok {
		return errors.New("guest node store is not disk-backed")
	}
	endCut := rec.begin("nodestore.Crash+reopen")
	defer endCut()
	cut := time.Now()
	if err := disk.Crash(); err != nil {
		return fmt.Errorf("power cut: %w", err)
	}
	reopened, err := nodestore.Open(filepath.Join(pr.storeDir, "guest"), nodestore.DiskConfig{})
	if err != nil {
		return fmt.Errorf("cold reopen: %w", err)
	}
	store, err := ibc.NewStoreWithBackend(reopened)
	if err != nil {
		return fmt.Errorf("restore store: %w", err)
	}
	defer store.CloseBackend()
	// Finalised implies durable. With pipelined generation the group fsync
	// at a finalisation also covers younger, still unfinalised blocks, so
	// the recovered head may be newer than the last finalised block; the
	// finalised root must be among the recovered versions.
	durable := false
	if recovered := reopened.Recovered(); recovered != nil {
		for _, rec := range recovered.Retained {
			durable = durable || rec.Height == lf.Block.Height && rec.Root == lf.Block.StateRoot
		}
	}
	if !durable {
		res.violations = append(res.violations, fmt.Sprintf("last finalised root (height %d) is not in the recovered log", lf.Block.Height))
	}
	for i, s := range samples {
		okProof := false
		if ro, err := store.At(s.version); err == nil {
			val, proof, err := ro.ProveMembership(s.path)
			okProof = err == nil && bytes.Equal(val, s.value) && bytes.Equal(proof, s.proof)
		}
		if !okProof {
			mismatches++
		}
		if i == 0 {
			res.recoverS = time.Since(cut).Seconds()
		}
	}
	if mismatches > 0 {
		res.violations = append(res.violations, fmt.Sprintf("%d of %d historical proofs differ after recovery", mismatches, recoverProofs))
		res.failed += mismatches
	}
	return nil
}

// subSeed derives the generator seed of one phase of one pass. It depends on
// the scenario, not the workload, so outbound-disk replays outbound-burst's
// inputs byte for byte.
func subSeed(seed int64, w *workloadSpec, pass int, phase string) int64 {
	return sim.DeriveSeed(seed, fmt.Sprintf("benchmark/scenario%d/pass%d/%s", w.scenario, pass, phase))
}

// contain runs fn on its own goroutine and turns a panic, or a run longer
// than limit of host time, into an error (a panic's carries the stack). A
// hung fn keeps its goroutine and its core: the caller should stop
// measuring.
func contain(limit time.Duration, fn func() error) error {
	done := make(chan error, 1) // one send: never blocks, even after the watchdog gave up
	go func() {
		defer func() {
			if r := recover(); r != nil {
				done <- fmt.Errorf("panic: %v\n%s", r, debug.Stack())
			}
		}()
		done <- fn()
	}()
	select {
	case err := <-done:
		return err
	case <-time.After(limit):
		return fmt.Errorf("watchdog: exceeded %s of host time", limit)
	}
}

// runPass runs w's phases once — all of them with ladder set, else only
// those an end-to-end metric reads — contained: a pass that panics or
// hangs is reported as failed, every attempt counted, not a dead
// benchmark.
func runPass(w *workloadSpec, seed int64, pass int, ladder bool, scratch string, rec *spanRecorder) *passResult {
	var phases []*phaseResult
	err := contain(passWatchdog, func() error {
		for _, ph := range w.phases {
			if !ladder && !ph.reference && !ph.overload {
				continue
			}
			res, err := runPhase(w, ph, subSeed(seed, w, pass, ph.name), scratch, rec)
			if err != nil {
				return fmt.Errorf("phase %s: %w", ph.name, err)
			}
			phases = append(phases, res)
		}
		return nil
	})
	if err != nil {
		n := plannedAttempts(w)
		return &passResult{Seed: seed, Attempted: n, Failed: n, Panic: err.Error()}
	}
	return foldPass(w, seed, phases)
}

// foldPass turns the phases' measurements into the pass's metrics.
func foldPass(w *workloadSpec, seed int64, phases []*phaseResult) *passResult {
	p := &passResult{Seed: seed, Virtual: map[string]float64{}, Host: map[string]float64{}, Traced: map[string]float64{}}
	var wallS, setupS, feesCents float64
	var mallocs, allocBytes uint64
	var fp []string
	for _, ph := range phases {
		setupS += ph.setupS
		wallS += ph.wallS
		mallocs += ph.mallocs
		allocBytes += ph.allocBytes
		feesCents += ph.feesCents
		p.Delivered += ph.delivered
		p.Violations = append(p.Violations, ph.violations...)
		p.Failed += ph.failed
		fp = append(fp, ph.spec.name+"["+ph.fingerprint+"]")
		step := stepResult{
			Name: ph.spec.name, RatePPS: ph.spec.rate, Offered: ph.offered, Delivered: ph.delivered,
			P50VirtualS: quantile(ph.latencies, 0.5), P99VirtualS: quantile(ph.latencies, 0.99),
			DeliveredShare: float64(ph.delivered) / float64(max(ph.offered, 1)),
		}
		p.Steps = append(p.Steps, step)
		if ph.spec.reference {
			p.Attempted += ph.offered + ph.proofChecks
			p.latencies = ph.latencies
			p.Host["heap_retained_mb"] = ph.heapRetainedMB
			for k, v := range ph.counts {
				p.Virtual[k] = v
			}
			for k, v := range ph.stages {
				p.Traced[k] = v
			}
			p.Virtual["loadgen.max_late_virtual_s"] = ph.maxLateS
		}
		if ph.spec.overload {
			p.Virtual["sustained_pps_virtual"] = float64(ph.deliveredInWindow) / ph.spec.window.Seconds()
		}
		if w.scenario == pairInbound {
			p.Virtual["loadgen."+ph.spec.name+".p99_virtual_s"] = step.P99VirtualS
			p.Virtual["loadgen."+ph.spec.name+".delivered_share"] = step.DeliveredShare
			if ph.spec.drain > 0 && ph.delivered == ph.offered && step.P99VirtualS <= sloLatencyVirtualS {
				p.Virtual["slo_rate_pps"] = max(p.Virtual["slo_rate_pps"], ph.spec.rate)
			}
		}
		if w.disk {
			p.Host["recover_s"] = ph.recoverS
		}
	}
	// CPU shares rest on every phase's profile: one phase is a second or
	// two, a hundred samples at the profiler's 100 Hz.
	var cpuTotal float64
	cpu := make(map[string]float64)
	for _, ph := range phases {
		for layer, v := range ph.cpu {
			cpu[layer] += v
			cpuTotal += v
		}
	}
	if cpuTotal > 0 {
		for _, layer := range cpuLayers {
			p.Traced["cpu."+layer+".share"] = cpu[layer] / cpuTotal
		}
	}
	p.Failed = min(p.Failed, p.Attempted)
	p.Fingerprint = strings.Join(fp, " ")
	delivered := float64(max(p.Delivered, 1))
	p.Host["setup_s"] = setupS / float64(len(phases))
	p.Host["wall_us_per_packet"] = wallS * 1e6 / delivered
	p.Host["allocs_per_packet"] = float64(mallocs) / delivered
	p.Host["alloc_kb_per_packet"] = float64(allocBytes) / 1024 / delivered
	p.Virtual["latency_p50_virtual_s"] = quantile(p.latencies, 0.5)
	p.Virtual["latency_p99_virtual_s"] = quantile(p.latencies, 0.99)
	p.Virtual["host_cost_cents_per_packet"] = feesCents / delivered
	return p
}

// countMetrics are read after a pass from the program's own telemetry
// snapshot and store statistics: work done, waits, retries and
// useful÷attempted ratios. They are exact for a seed.
var countMetrics = func() []metricSpec {
	names := []struct{ name, unit, better string }{
		{"host.txs_per_packet", "count", "lower"},
		{"host.compute_units_per_packet", "count", "lower"},
		{"guest.packets_per_block", "count", "higher"},
		{"guest.finalise_virtual_s_p50", "s", "lower"},
		{"guest.live_nodes_end", "count", "lower"},
		{"guest.retained_versions_end", "count", "lower"},
		{"validator.signatures_per_block", "count", "lower"},
		{"cryptoutil.sigs_verified_per_packet", "count", "lower"},
		{"cryptoutil.sigcache_hit_ratio", "ratio", "higher"},
		{"relayer.client_updates_per_packet", "count", "lower"},
		{"relayer.update_txs_mean", "count", "lower"},
		{"relayer.update_latency_virtual_s_p50", "s", "lower"},
		{"relayer.job_latency_virtual_s_p50", "s", "lower"},
		{"relayer.recv_txs_mean", "count", "lower"},
		{"relayer.queue_depth_end", "count", "lower"},
		{"relayer.net_retries_per_packet", "count", "lower"},
		{"relayer.dead_letters", "count", "lower"},
		{"relayer.link_updates_per_packet_max", "count", "lower"},
		{"netsim.msgs_per_packet", "count", "lower"},
		{"netsim.dropped_share", "ratio", "lower"},
		{"routing.recomputes", "count", "lower"},
		{"nodestore.wal_bytes_per_packet", "B", "lower"},
		{"nodestore.nodes_written_per_packet", "count", "lower"},
		{"nodestore.node_reads_per_packet", "count", "lower"},
		{"nodestore.syncs_per_block", "count", "lower"},
		{"loadgen.max_late_virtual_s", "s", "lower"},
		{"loadgen.acked_share", "ratio", "higher"},
	}
	var out []metricSpec
	for _, n := range names {
		out = append(out, metricSpec{name: n.name, unit: n.unit, better: n.better})
	}
	for _, ph := range workloadByName("inbound-ladder").phases {
		out = append(out,
			metricSpec{name: "loadgen." + ph.name + ".p99_virtual_s", unit: "s", better: "lower"},
			metricSpec{name: "loadgen." + ph.name + ".delivered_share", unit: "ratio", better: "higher"})
	}
	return out
}()

// countsOf derives the count metrics of one phase. Relayer metrics live
// under "relayer." on the pair topology and "relayer.link.<id>." per link
// on the mesh; sums and histograms pool every namespace.
func countsOf(pr *phaseRun, snap telemetry.Snapshot, res *phaseResult, sigs0, sigs1 cryptoutil.CacheStats) map[string]float64 {
	delivered := float64(max(res.delivered, 1))
	sumSuffix := func(suffix string) (sum, maxv float64) {
		for k, v := range snap.Counters {
			if strings.HasPrefix(k, "relayer.") && strings.HasSuffix(k, suffix) {
				sum += float64(v)
				maxv = max(maxv, float64(v))
			}
		}
		return sum, maxv
	}
	pooled := func(suffix string) []float64 {
		var keys []string
		for k := range snap.Histograms {
			if strings.HasPrefix(k, "relayer.") && strings.HasSuffix(k, suffix) {
				keys = append(keys, k)
			}
		}
		sort.Strings(keys)
		var out []float64
		for _, k := range keys {
			out = append(out, snap.Histograms[k].Samples...)
		}
		return out
	}
	mean := func(xs []float64) float64 {
		if len(xs) == 0 {
			return 0
		}
		var s float64
		for _, x := range xs {
			s += x
		}
		return s / float64(len(xs))
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}

	c := make(map[string]float64)
	// An acknowledgement still outstanding after the drain is backlog, not
	// a failure: the outbound burst returns acks over the pacer-limited
	// guest leg at about 1.4 per virtual second, and the relayers drop an
	// ack whose relay attempt fails (README, known limits).
	acked := 0
	for i := range pr.transfers {
		if pr.transfers[i].ackAt != unset {
			acked++
		}
	}
	c["loadgen.acked_share"] = float64(acked) / delivered
	c["host.txs_per_packet"] = float64(snap.Counter("host.txs_executed")) / delivered
	c["host.compute_units_per_packet"] = snap.Histograms["host.tx_compute_units"].Sum / delivered
	blocks := float64(len(snap.HistogramSamples("guest.block.finalise_s")))
	c["guest.packets_per_block"] = ratio(float64(snap.Counter("guest.ibc.packets_sent")+snap.Counter("guest.ibc.packets_received")), blocks)
	c["guest.finalise_virtual_s_p50"] = median(snap.HistogramSamples("guest.block.finalise_s"))
	c["guest.live_nodes_end"] = float64(snap.Gauge("guest.state.live_nodes"))
	c["guest.retained_versions_end"] = float64(snap.Gauge("guest.state.retained_versions"))
	c["validator.signatures_per_block"] = ratio(float64(snap.Counter("validator.signatures")), blocks)
	hits, misses := float64(sigs1.Hits-sigs0.Hits), float64(sigs1.Misses-sigs0.Misses)
	c["cryptoutil.sigs_verified_per_packet"] = misses / delivered
	c["cryptoutil.sigcache_hit_ratio"] = ratio(hits, hits+misses)
	updates, maxUpdates := sumSuffix("client_updates")
	c["relayer.client_updates_per_packet"] = updates / delivered
	c["relayer.link_updates_per_packet_max"] = maxUpdates / delivered
	c["relayer.update_txs_mean"] = mean(pooled(".update.txs"))
	c["relayer.update_latency_virtual_s_p50"] = median(pooled(".update.latency_s"))
	c["relayer.job_latency_virtual_s_p50"] = median(pooled(".job.latency_s"))
	c["relayer.recv_txs_mean"] = mean(pooled(".recv.txs"))
	for k, v := range snap.Gauges {
		if strings.HasPrefix(k, "relayer.") && (strings.HasSuffix(k, ".queue_depth") || strings.HasSuffix(k, ".backlog")) {
			c["relayer.queue_depth_end"] += float64(v)
		}
	}
	retries, _ := sumSuffix("net_retries")
	c["relayer.net_retries_per_packet"] = retries / delivered
	c["relayer.dead_letters"], _ = sumSuffix("net_dead_letters")
	sent := float64(snap.Counter("netsim.sent"))
	c["netsim.msgs_per_packet"] = sent / delivered
	c["netsim.dropped_share"] = ratio(float64(snap.Counter("netsim.dropped")), sent)
	c["routing.recomputes"] = float64(snap.Counter("mesh.routing.recomputes"))
	if ns := pr.net.GuestNodeStore; ns != nil {
		s := ns.Stats()
		c["nodestore.wal_bytes_per_packet"] = float64(s.BytesAppended) / delivered
		c["nodestore.nodes_written_per_packet"] = float64(s.NodesWritten) / delivered
		c["nodestore.node_reads_per_packet"] = float64(s.NodeReads) / delivered
		c["nodestore.syncs_per_block"] = ratio(float64(s.Syncs), blocks)
	}
	return c
}
