package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/fees"
	"repro/internal/host"
	"repro/internal/sim"
	"repro/internal/stats"
)

// CongestionAblation implements the §VI-B study the paper defers: under a
// congested host, a fixed low fee suffers long inclusion delays while an
// adaptive policy that tracks the backlog keeps latency flat — and during
// quiet periods the adaptive policy pays near the floor, unlike the
// deployment's fixed high fees.
type CongestionAblation struct {
	// Inclusion delays (submission to execution) in seconds.
	FixedLowDelays  []float64
	AdaptiveDelays  []float64
	FixedHighDelays []float64
	// Average fee paid per probe, in cents.
	FixedLowCents  float64
	AdaptiveCents  float64
	FixedHighCents float64
}

// burnProgram wastes compute units, simulating unrelated heavy traffic.
type burnProgram struct {
	id    host.ProgramID
	units uint64
}

func (p *burnProgram) ID() host.ProgramID { return p.id }
func (p *burnProgram) Execute(ctx *host.ExecContext, _ host.Instruction) error {
	return ctx.Meter.Consume(p.units)
}

// probeEvent marks one probe transaction landing (probe landing detector).
type probeEvent struct {
	Tag string
}

func (probeEvent) EventKind() string { return "probe" }

// noteProgram just records execution (probe landing detector).
type noteProgram struct {
	id host.ProgramID
}

func (p *noteProgram) ID() host.ProgramID { return p.id }
func (p *noteProgram) Execute(ctx *host.ExecContext, ins host.Instruction) error {
	ctx.Emit(probeEvent{Tag: string(ins.Data)})
	return nil
}

// probeResult is one policy's measurements from an isolated probe run.
type probeResult struct {
	delays []float64
	cents  float64
}

// RunCongestionAblation probes a congested host with three sender
// policies. Each policy gets its own fully independent simulated world —
// the same spam schedule hits each chain, and a single probe measures
// inclusion delay — so the three runs fan out across the worker pool while
// staying individually deterministic. (The probes are a negligible load
// next to the spam, so isolating them does not change the congestion the
// spammer creates.)
func RunCongestionAblation(minutes int, seed int64) *CongestionAblation {
	names := []string{"fixed-low", "adaptive", "fixed-high"}
	results := make([]probeResult, len(names))
	_ = forEach(len(names), func(i int) error {
		results[i] = runCongestionProbe(minutes, names[i])
		return nil
	})
	return &CongestionAblation{
		FixedLowDelays:  results[0].delays,
		AdaptiveDelays:  results[1].delays,
		FixedHighDelays: results[2].delays,
		FixedLowCents:   results[0].cents,
		AdaptiveCents:   results[1].cents,
		FixedHighCents:  results[2].cents,
	}
}

// runCongestionProbe measures one fee policy against the spam burst on a
// private chain: spam paying a mid-level priority fee floods the chain
// during the middle 40% of the window.
func runCongestionProbe(minutes int, policyName string) probeResult {
	sched := sim.NewScheduler(time.Date(2024, 9, 1, 0, 0, 0, 0, time.UTC))
	chain := host.NewChain(sched.Clock())

	spammer := cryptoutil.GenerateKey("spammer").Public()
	chain.Fund(spammer, 1_000_000*host.LamportsPerSOL)
	burner := &burnProgram{id: cryptoutil.GenerateKey("burner").Public(), units: 1_200_000}
	chain.RegisterProgram(burner)
	probeProg := &noteProgram{id: cryptoutil.GenerateKey("noter").Public()}
	chain.RegisterProgram(probeProg)

	// Spam: during the burst window, ~55 heavy txs per slot at a mid fee;
	// the 48M CU slot budget fits only 40, so a backlog builds and
	// priority ordering decides who waits. Outside the window the chain
	// is quiet and everyone lands immediately.
	const spamFee = 50_000
	window := time.Duration(minutes) * time.Minute
	burstStart := sched.Now().Add(window * 3 / 10)
	burstEnd := sched.Now().Add(window * 7 / 10)
	sched.Every(host.SlotDuration, func() bool {
		if sched.Now().After(burstStart) && sched.Now().Before(burstEnd) {
			for i := 0; i < 55; i++ {
				tx := &host.Transaction{
					FeePayer:     spammer,
					Instructions: []host.Instruction{{Program: burner.id}},
					PriorityFee:  spamFee,
					Label:        "spam",
				}
				if err := chain.Submit(tx); err != nil {
					return true
				}
			}
		}
		chain.ProduceBlock()
		return true
	})

	var policy func() fees.Policy
	switch policyName {
	case "fixed-low":
		policy = func() fees.Policy { return fees.Policy{Name: "low", PriorityFee: 1_000} }
	case "fixed-high":
		policy = func() fees.Policy { return fees.Policy{Name: "high", PriorityFee: 400_000} }
	default:
		adaptive := fees.NewAdaptive(chain)
		adaptive.Floor = 1_000
		adaptive.Ceiling = 400_000
		adaptive.FullAt = 150
		policy = adaptive.Policy
	}

	payer := cryptoutil.GenerateKey("probe-" + policyName).Public()
	chain.Fund(payer, 1_000*host.LamportsPerSOL)
	sent := make(map[string]time.Time)
	var res probeResult
	var paid host.Lamports
	var count, sequence int

	// Probes fire every ~10 s, offset from slot boundaries so the
	// inclusion delay is visible.
	sched.Every(9700*time.Millisecond, func() bool {
		sequence++
		tag := fmt.Sprintf("%s/%d", policyName, sequence)
		pol := policy()
		tx := &host.Transaction{
			FeePayer:     payer,
			Instructions: []host.Instruction{{Program: probeProg.id, Data: []byte(tag)}},
			PriorityFee:  pol.PriorityFee,
			BundleTip:    pol.BundleTip,
			Label:        "probe",
		}
		if err := chain.Submit(tx); err != nil {
			return true
		}
		sent[tag] = sched.Now()
		paid += tx.Fee(chain.Profile())
		count++
		return true
	})

	// Watcher: collect probe landings once per slot.
	blocks := chain.NewReader()
	sched.Every(host.SlotDuration, func() bool {
		for _, b := range blocks.Pull(nil) {
			for _, ev := range b.Events {
				pe, ok := ev.Payload.(probeEvent)
				if !ok {
					continue
				}
				if at, ok := sent[pe.Tag]; ok {
					res.delays = append(res.delays, b.Time.Sub(at).Seconds())
					delete(sent, pe.Tag)
				}
			}
		}
		return true
	})

	sched.RunFor(time.Duration(minutes) * time.Minute)

	if count > 0 {
		res.cents = fees.Cents(paid) / float64(count)
	}
	return res
}

// Render prints the ablation.
func (a *CongestionAblation) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation — adaptive fees under congestion (§VI-B)\n")
	fmt.Fprintf(&b, "%12s %10s %12s %12s\n", "policy", "fee ¢/tx", "median (s)", "p95 (s)")
	row := func(name string, cents float64, delays []float64) {
		if len(delays) == 0 {
			fmt.Fprintf(&b, "%12s %10.2f %12s %12s\n", name, cents, "starved", "starved")
			return
		}
		fmt.Fprintf(&b, "%12s %10.2f %12.2f %12.2f\n", name, cents,
			stats.QuantileUnsorted(delays, 0.5), stats.QuantileUnsorted(delays, 0.95))
	}
	row("fixed-low", a.FixedLowCents, a.FixedLowDelays)
	row("adaptive", a.AdaptiveCents, a.AdaptiveDelays)
	row("fixed-high", a.FixedHighCents, a.FixedHighDelays)
	fmt.Fprintf(&b, "(spam bursts in the middle of the window; adaptive matches fixed-high latency\n")
	fmt.Fprintf(&b, " while paying the floor during quiet periods)\n")
	return b.String()
}
