// Package experiments reproduces the paper's evaluation (§V): one driver
// per table and figure, all fed by a month-long simulated deployment of
// the guest blockchain on the host chain connected to the counterparty.
// The drivers return structured series so that cmd/benchfigs can print
// them and bench_test.go can assert their shapes.
package experiments

import (
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/fees"
	"repro/internal/host"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// Config parameterises a deployment run.
type Config struct {
	// Duration of the simulated window (default: the paper's 28 days).
	Duration time.Duration
	// OutPerDay / InPerDay are mean packets per day in each direction
	// (Poisson arrivals).
	OutPerDay float64
	InPerDay  float64
	// PriorityFraction is the share of sends using priority fees; the
	// rest use bundles (§V-A: 17% / 83%).
	PriorityFraction float64
	// OutMemo / InMemo draw the memo padding added to transfers (in
	// bytes, expressed as durations for reuse of the sim distributions);
	// outbound packets must fit one host transaction, inbound sizes are
	// what pushes ReceivePacket to 4-5 transactions.
	OutMemo sim.Dist
	InMemo  sim.Dist
	// Seed drives the workload and all network randomness.
	Seed int64
}

// DefaultConfig mirrors the evaluation conditions.
func DefaultConfig() Config {
	return Config{
		Duration:         core.EvaluationWindow,
		OutPerDay:        14,
		InPerDay:         8,
		PriorityFraction: 0.17,
		OutMemo:          sim.Uniform{Min: 200, Max: 600},
		// ~98% of inbound packets fit the 4-transaction flow; the rest
		// spill into 5 (§V-A: 98.2% at 0.4¢, remainder at 0.5¢).
		InMemo: sim.Mixture{
			Weights: []float64{0.98, 0.02},
			Components: []sim.Dist{
				sim.Uniform{Min: 2050, Max: 2350},
				sim.Uniform{Min: 2750, Max: 3000},
			},
		},
		Seed: 1,
	}
}

// SendSample is one guest-side packet send (Figs. 2-3).
type SendSample struct {
	// Latency is SendPacket execution to FinalisedBlock (seconds).
	Latency float64
	// CostUSD is the host fee of the send transaction.
	CostUSD float64
	// Policy names the fee policy used.
	Policy string
}

// Deployment holds the raw measurements of one simulated window.
type Deployment struct {
	Net *core.Network

	Sends           []SendSample
	UpdateLatencies []float64 // seconds (Fig. 4)
	UpdateTxCounts  []float64 // transactions per update (§V-A: 36.5 ± 5.8)
	UpdateCosts     []float64 // cents (Fig. 5)
	UpdateSigs      []float64 // signatures checked per update
	RecvTxs         []float64 // §V-A: 4-5
	RecvCostsCents  []float64 // §V-A: 0.4-0.5 ¢
	BlockIntervals  []float64 // seconds (Fig. 6)

	// Packets sent/received for sanity checks.
	OutboundSent int
	InboundSent  int

	// sendMeta records the fee policy and fee of each outbound send, in
	// send order, so collect can join them with the tracer's packet traces.
	sendMeta []sendMeta
}

type sendMeta struct {
	policy string
	fee    host.Lamports
}

// Run executes the deployment simulation with the default (Table I)
// network and collects every series.
func Run(cfg Config) (*Deployment, error) {
	return RunWithNetwork(cfg, core.Config{Seed: cfg.Seed})
}

// RunWithNetwork executes the deployment workload on a custom network
// configuration (the ablations, and guestsim's flags); with more than one
// channel in netCfg the workload round-robins its sends across them.
func RunWithNetwork(cfg Config, netCfg core.Config) (*Deployment, error) {
	if cfg.Duration <= 0 {
		cfg.Duration = core.EvaluationWindow
	}
	if netCfg.Seed == 0 {
		netCfg.Seed = cfg.Seed
	}
	net, err := core.NewNetwork(netCfg)
	if err != nil {
		return nil, err
	}
	d := &Deployment{Net: net}
	rng := rand.New(rand.NewSource(cfg.Seed + 1000))

	alice := net.NewUser("wl-sender", 100_000*host.LamportsPerSOL, "GUEST", 1<<40)
	net.CPApp.Mint("wl-cp-sender", "PICA", 1<<40)
	// Extra channels get the same supply on their own apps so the
	// round-robin workload can send on every route.
	for i := 1; i < len(net.Channels); i++ {
		net.Channels[i].GuestApp.Mint(alice.Key.Public().String(), "GUEST", 1<<40)
		net.Channels[i].CPApp.Mint("wl-cp-sender", "PICA", 1<<40)
	}
	nCh := len(net.Channels)

	memo := func(dist sim.Dist) string {
		n := int(dist.Sample(rng))
		buf := make([]byte, n)
		for i := range buf {
			buf[i] = 'a' + byte(rng.Intn(26))
		}
		return string(buf)
	}

	// Outbound workload: Poisson arrivals, 17/83 fee policy split.
	outGap := sim.Exponential{Mean: time.Duration(float64(24*time.Hour) / cfg.OutPerDay)}
	var scheduleOut func()
	scheduleOut = func() {
		net.Sched.After(outGap.Sample(rng), func() {
			policy := fees.BundlePolicy
			if rng.Float64() < cfg.PriorityFraction {
				policy = fees.PriorityPolicy
			}
			ch := d.OutboundSent % nCh
			tx, err := net.SendTransferFromGuestOn(ch, alice, "cp-receiver", "GUEST", 1+uint64(rng.Intn(1000)), memo(cfg.OutMemo), policy, 0)
			if err == nil {
				d.OutboundSent++
				d.sendMeta = append(d.sendMeta, sendMeta{policy: policy.Name, fee: tx.Fee(net.Host.Profile())})
			}
			scheduleOut()
		})
	}
	scheduleOut()

	// Inbound workload.
	inGap := sim.Exponential{Mean: time.Duration(float64(24*time.Hour) / cfg.InPerDay)}
	var scheduleIn func()
	scheduleIn = func() {
		net.Sched.After(inGap.Sample(rng), func() {
			ch := d.InboundSent % nCh
			_, err := net.SendTransferFromCPOn(ch, "wl-cp-sender", "guest-receiver", "PICA", 1+uint64(rng.Intn(1000)), memo(cfg.InMemo), 0)
			if err == nil {
				d.InboundSent++
			}
			scheduleIn()
		})
	}
	scheduleIn()

	net.Run(cfg.Duration)
	d.collect()
	return d, nil
}

// collect compiles every figure series from the finished network's
// telemetry snapshot: packet traces give Figs. 2-3, the relayer histograms
// Figs. 4-5 and the §V-A receive flow, and the block-cadence histogram
// Fig. 6.
func (d *Deployment) collect() {
	snap := d.Net.SnapshotTelemetry()

	// Figs. 2-3: per packet, SendPacket -> FinalisedBlock and the send
	// transaction cost. Traces are joined with the recorded per-send fee
	// policy by sequence number (sends are strictly ordered). Only traces
	// the relayer opened with a send span are guest-side sends.
	type seqTrace struct {
		seq uint64
		tr  telemetry.Trace
	}
	var traces []seqTrace
	for _, tr := range snap.Traces {
		if _, ok := tr.Span(telemetry.StageSend); !ok {
			continue
		}
		keySeq := tr.Key[strings.LastIndexByte(tr.Key, '/')+1:]
		seq, err := strconv.ParseUint(keySeq, 10, 64)
		if err != nil {
			continue
		}
		traces = append(traces, seqTrace{seq: seq, tr: tr})
	}
	sort.Slice(traces, func(i, j int) bool { return traces[i].seq < traces[j].seq })
	for i, st := range traces {
		send, _ := st.tr.Span(telemetry.StageSend)
		fin, ok := st.tr.Span(telemetry.StageFinalise)
		if !ok || i >= len(d.sendMeta) {
			continue
		}
		meta := d.sendMeta[i]
		d.Sends = append(d.Sends, SendSample{
			Latency: fin.At.Sub(send.At).Seconds(),
			CostUSD: fees.USD(meta.fee),
			Policy:  meta.policy,
		})
	}

	// Figs. 4-5: relayer client updates, in observation order.
	d.UpdateLatencies = snap.HistogramSamples("relayer.update.latency_s")
	d.UpdateTxCounts = snap.HistogramSamples("relayer.update.txs")
	d.UpdateCosts = snap.HistogramSamples("relayer.update.cost_cents")
	d.UpdateSigs = snap.HistogramSamples("relayer.update.sigs")

	// §V-A receive flow.
	d.RecvTxs = snap.HistogramSamples("relayer.recv.txs")
	d.RecvCostsCents = snap.HistogramSamples("relayer.recv.cost_cents")

	// Fig. 6: guest block intervals.
	d.BlockIntervals = snap.HistogramSamples("guest.block.interval_s")
}
