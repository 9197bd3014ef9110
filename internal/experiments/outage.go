package experiments

import (
	"time"

	"repro/internal/core"
	"repro/internal/fees"
	"repro/internal/host"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/validator"
)

// OutageResult summarises a pivotal-validator outage run (§V-C): while a
// validator holding a quorum-critical stake share is dark, the remaining
// signers cannot reach 2/3 and finalisation stalls for the whole window.
type OutageResult struct {
	// Window is the injected crash.
	Window netsim.CrashWindow
	// StallSeconds is the longest block finalisation delay observed.
	StallSeconds float64
	// TypicalSeconds is the median finalisation delay outside the stall.
	TypicalSeconds float64
	// Blocks and Finalised count guest blocks over the run; a recovered
	// network finalises everything, the stalled block included.
	Blocks    int
	Finalised int
	// DroppedByCrash counts messages the crash window ate. Retries counts
	// reliable-call re-issues over the run; it can be zero, since a fully
	// crashed daemon originates nothing — recovery comes from the cursor
	// pull and head re-signing, not the retry timer.
	DroppedByCrash uint64
	Retries        uint64
}

// OutageWindow is the injected fault of RunOutage: the pivotal validator
// goes dark for 9 h 30 m starting on day 1 (within the §V-C "about 9.5
// hours" report).
func OutageWindow() netsim.CrashWindow {
	return netsim.CrashWindow{
		Node:     netsim.ValidatorNode(0),
		From:     24 * time.Hour,
		Duration: 9*time.Hour + 30*time.Minute,
	}
}

// pivotalFleet is the four-validator fleet of the outage and recover runs:
// validator 0 holds 40% of stake, so the other three's 60% sits below the
// 2/3 quorum and finalisation exists only with it.
func pivotalFleet() ([]validator.Behaviour, []host.Lamports) {
	const sol = host.LamportsPerSOL
	return uniformFleet(4, sim.Uniform{Min: 2 * time.Second, Max: 4 * time.Second}),
		[]host.Lamports{400 * sol, 200 * sol, 200 * sol, 200 * sol}
}

// RunOutage reproduces the §V-C liveness incident in isolation: a
// four-validator guest where validator 0 holds 40% of stake (so the other
// three's 60% sits below the 2/3 quorum), with validator 0 crashed via a
// netsim fault window rather than a modelled latency tail. Finalisation
// stalls for the window and recovers when the daemon heals: the stalled
// block's finalisation delay is the outage length, and no block is lost.
func RunOutage(seed int64) (*OutageResult, error) {
	window := OutageWindow()
	behaviours, stakes := pivotalFleet()

	net, err := core.NewNetwork(core.Config{
		Behaviours: behaviours,
		Stakes:     stakes,
		Seed:       seed,
		Net:        netsim.Config{Crashes: []netsim.CrashWindow{window}},
	})
	if err != nil {
		return nil, err
	}
	// A light outbound workload keeps guest blocks coming during the run.
	u := net.NewUser("outage-sender", 1000*host.LamportsPerSOL, "GUEST", 1<<30)
	net.Sched.Every(time.Hour, func() bool {
		_, _ = net.SendTransferFromGuest(u, "cp-receiver", "GUEST", 1, "", fees.BundlePolicy, 0)
		return true
	})
	net.Run(window.From + window.Duration + 12*time.Hour)

	st, err := net.GuestState()
	if err != nil {
		return nil, err
	}
	res := &OutageResult{Window: window, Blocks: len(st.Entries)}
	var delays []float64
	for _, e := range st.Entries {
		if !e.Finalised {
			continue
		}
		res.Finalised++
		if e.FinalisedAt.IsZero() {
			continue // genesis is born finalised
		}
		d := e.FinalisedAt.Sub(e.CreatedAt).Seconds()
		delays = append(delays, d)
		if d > res.StallSeconds {
			res.StallSeconds = d
		}
	}
	// Median of the non-stall delays.
	var typical []float64
	for _, d := range delays {
		if d < res.StallSeconds {
			typical = append(typical, d)
		}
	}
	if len(typical) > 0 {
		res.TypicalSeconds = stats.Summarize(typical).Med
	}
	snap := net.SnapshotTelemetry()
	res.DroppedByCrash = snap.Counter("netsim.dropped_crash")
	res.Retries = snap.Counter("validator.net_retries") + snap.Counter("relayer.net_retries")
	return res, nil
}
