package core

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/counterparty"
	"repro/internal/fees"
	"repro/internal/host"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/validator"
)

// chaosFleet is a four-validator guest with equal-enough stakes that the
// 2/3 quorum survives any single daemon crashing.
func chaosFleet() ([]validator.Behaviour, []host.Lamports) {
	behaviours := make([]validator.Behaviour, 4)
	stakes := make([]host.Lamports, 4)
	for i := range behaviours {
		behaviours[i] = validator.Behaviour{
			Active:  true,
			Latency: sim.Uniform{Min: 2 * time.Second, Max: 4 * time.Second},
			Policy:  fees.Policy{Name: "fixed"},
		}
		stakes[i] = 250 * host.LamportsPerSOL
	}
	return behaviours, stakes
}

// TestChaosExactlyOnceDelivery runs transfers in both directions through a
// lossy network — 5% drop and 2% duplication on every link, a 2-hour
// relayer<->counterparty partition, and a validator crash/heal window — and
// verifies the end-to-end exactly-once guarantee: every token sent arrives
// exactly once (receiver balances equal the sums sent; loss would
// undershoot, double delivery would overshoot), with the reliable-call
// retry layer visibly doing the bridging.
func TestChaosExactlyOnceDelivery(t *testing.T) {
	behaviours, stakes := chaosFleet()
	n, err := NewNetwork(Config{
		Behaviours: behaviours,
		Stakes:     stakes,
		Seed:       7,
		Net: netsim.Config{
			Default: netsim.LinkConfig{
				Latency:   sim.Uniform{Min: 10 * time.Millisecond, Max: 80 * time.Millisecond},
				Drop:      0.05,
				Duplicate: 0.02,
			},
			Partitions: []netsim.PartitionWindow{{
				A:        []netsim.NodeID{netsim.RelayerNode},
				B:        []netsim.NodeID{netsim.CPNode},
				From:     6 * time.Hour,
				Duration: 2 * time.Hour,
			}},
			Crashes: []netsim.CrashWindow{{
				Node:     netsim.ValidatorNode(1),
				From:     3 * time.Hour,
				Duration: time.Hour,
			}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	u := n.NewUser("chaos-sender", 10_000*host.LamportsPerSOL, "GUEST", 1<<40)
	n.CPApp.Mint("chaos-cp-sender", "PICA", 1<<40)

	// 30 outbound and 15 inbound transfers spread over the first 12 hours,
	// crossing both fault windows.
	var sentOut, sentIn uint64
	for i := 0; i < 30; i++ {
		amt := uint64(100 + i)
		n.Sched.After(time.Duration(i)*24*time.Minute+time.Minute, func() {
			if _, err := n.SendTransferFromGuest(u, "cp-receiver", "GUEST", amt, "", fees.BundlePolicy, 0); err == nil {
				sentOut += amt
			}
		})
	}
	for i := 0; i < 15; i++ {
		amt := uint64(500 + i)
		n.Sched.After(time.Duration(i)*48*time.Minute+2*time.Minute, func() {
			if _, err := n.SendTransferFromCP("chaos-cp-sender", "guest-receiver", "PICA", amt, "", 0); err == nil {
				sentIn += amt
			}
		})
	}
	n.Run(30 * time.Hour)

	if sentOut == 0 || sentIn == 0 {
		t.Fatalf("workload did not run: sentOut=%d sentIn=%d", sentOut, sentIn)
	}
	outVoucher := fmt.Sprintf("%s/%s/GUEST", defaultPort, n.Boot.CPChannel)
	if got := n.CPApp.Balance("cp-receiver", outVoucher); got != sentOut {
		t.Errorf("cp-receiver %s = %d, want %d (lost or double-delivered packets)", outVoucher, got, sentOut)
	}
	inVoucher := fmt.Sprintf("%s/%s/PICA", defaultPort, n.Boot.GuestChannel)
	if got := n.GuestApp.Balance("guest-receiver", inVoucher); got != sentIn {
		t.Errorf("guest-receiver %s = %d, want %d (lost or double-delivered packets)", inVoucher, got, sentIn)
	}

	snap := n.SnapshotTelemetry()
	if snap.Counter("netsim.dropped") == 0 {
		t.Error("netsim.dropped = 0: the lossy links never dropped anything")
	}
	if snap.Counter("netsim.dropped_partition") == 0 {
		t.Error("netsim.dropped_partition = 0: the partition window never bit")
	}
	if snap.Counter("netsim.dropped_crash") == 0 {
		t.Error("netsim.dropped_crash = 0: the crash window never bit")
	}
	if snap.Counter("relayer.net_retries") == 0 {
		t.Error("relayer.net_retries = 0: reliable calls never retried")
	}
	st, err := n.GuestState()
	if err != nil {
		t.Fatal(err)
	}
	if !st.Head().Finalised {
		t.Error("guest head not finalised after the faults healed")
	}
}

// TestChaosDeterminism re-runs a faulty scenario and checks a fingerprint
// of run-local state is bit-identical: all chaos randomness flows from the
// seeds. (The full telemetry render is not comparable across same-process
// runs — it includes the process-wide signature cache and wall-clock
// quorum-verify timings.)
func TestChaosDeterminism(t *testing.T) {
	run := func() string {
		behaviours, stakes := chaosFleet()
		n, err := NewNetwork(Config{
			Behaviours: behaviours,
			Stakes:     stakes,
			Seed:       11,
			Net: netsim.Config{
				Default: netsim.LinkConfig{
					Latency: sim.Uniform{Min: 5 * time.Millisecond, Max: 60 * time.Millisecond},
					Drop:    0.08,
				},
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		u := n.NewUser("det-sender", 1000*host.LamportsPerSOL, "GUEST", 1<<30)
		for i := 0; i < 10; i++ {
			n.Sched.After(time.Duration(i)*11*time.Minute+time.Minute, func() {
				_, _ = n.SendTransferFromGuest(u, "cp-receiver", "GUEST", 42, "", fees.BundlePolicy, 0)
			})
		}
		n.Run(4 * time.Hour)
		st, err := n.GuestState()
		if err != nil {
			t.Fatal(err)
		}
		snap := n.SnapshotTelemetry()
		return fmt.Sprintf("sent=%d delivered=%d dropped=%d retries=%d updates=%d head=%d cp=%d fees=%d",
			snap.Counter("netsim.sent"), snap.Counter("netsim.delivered"), snap.Counter("netsim.dropped"),
			snap.Counter("relayer.net_retries"), snap.Counter("relayer.client_updates"),
			st.Height(), n.CP.Height(), n.Relayer.TotalFees)
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("identical chaos runs diverged:\n  %s\n  %s", a, b)
	}
}

// TestHostHoldsOnlyUnreadBlocks: the host keeps a block only while some
// daemon has not pulled it. With every daemon reachable it holds nothing
// between slots however long the run; a validator cut off by a crash window
// holds the blocks produced since it went dark, and releases them when it
// is back.
func TestHostHoldsOnlyUnreadBlocks(t *testing.T) {
	cp := counterparty.DefaultConfig()
	cp.NumValidators = 12
	cp.BlockInterval = 3 * time.Second
	n, err := NewNetwork(Config{
		CP:         cp,
		Behaviours: fastFleet(4),
		Seed:       7,
		Net: netsim.Config{Crashes: []netsim.CrashWindow{{
			Node:     netsim.ValidatorNode(3),
			From:     2 * time.Hour,
			Duration: time.Hour,
		}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	u := n.NewUser("sender", 10_000*host.LamportsPerSOL, "GUEST", 1<<40)
	n.Sched.Every(5*time.Minute, func() bool {
		_, _ = n.SendTransferFromGuest(u, "cp-receiver", "GUEST", 1, "", fees.BundlePolicy, 0)
		return true
	})

	n.Run(2 * time.Hour)
	if held := n.Host.HeldBlocks(); held != 0 {
		t.Fatalf("%d blocks held with every daemon caught up after %d slots", held, n.Host.Slot())
	}
	n.Run(30 * time.Minute)
	early := n.Host.HeldBlocks()
	n.Run(29 * time.Minute)
	late := n.Host.HeldBlocks()
	if early == 0 || late <= early {
		t.Fatalf("held %d then %d blocks while validator 3 was dark; want a growing backlog", early, late)
	}
	t.Logf("%d then %d blocks held for the dark validator, at slot %d", early, late, n.Host.Slot())
	signed := len(n.Validators[3].Records)
	n.Run(time.Hour)
	if held := n.Host.HeldBlocks(); held != 0 {
		t.Fatalf("%d blocks held after validator 3 came back", held)
	}
	if len(n.Validators[3].Records) == signed {
		t.Fatal("validator 3 signed nothing once it was back")
	}
}
