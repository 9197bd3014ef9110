// Hostprofiles: §VI-D in action — the identical Guest Contract deployed on
// three different host profiles. On the Solana profile (1232-byte
// transactions, 1.4M compute units) a light-client update needs dozens of
// chunked transactions; on NEAR-like and TRON-like profiles the same
// update fits in two. The application code does not change at all.
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/core"
	"repro/internal/counterparty"
	"repro/internal/fees"
	"repro/internal/host"
	"repro/internal/sim"
	"repro/internal/validator"
)

func main() {
	profiles := []host.Profile{
		host.SolanaProfile(),
		host.NEARLikeProfile(),
		host.TRONLikeProfile(),
	}
	fmt.Printf("%-10s %10s %12s %14s %12s %14s\n",
		"host", "slot", "max tx (B)", "txs/update", "txs/recv", "send->recv")
	for _, p := range profiles {
		run(p)
	}
	fmt.Println("\nThe guest blockchain adapts to its host automatically: the chunked-upload")
	fmt.Println("machinery only engages where the transaction size limit demands it (§IV, §VI-D).")
}

func run(profile host.Profile) {
	fleet := make([]validator.Behaviour, 4)
	for i := range fleet {
		fleet[i] = validator.Behaviour{
			Active:  true,
			Latency: sim.Uniform{Min: 500 * time.Millisecond, Max: 2 * time.Second},
			Policy:  fees.Policy{Name: "fixed", PriorityFee: 1_000},
		}
	}
	cp := counterparty.DefaultConfig()
	cp.NumValidators = 60
	cp.BlockInterval = 3 * time.Second
	net, err := core.NewNetwork(core.Config{
		Behaviours:  fleet,
		CP:          cp,
		HostProfile: profile,
		Seed:        77,
	})
	if err != nil {
		log.Fatal(err)
	}

	// One inbound transfer exercises the client update + receive flow;
	// step the clock until the voucher lands to measure delivery time.
	net.CPApp.Mint("sender", "PICA", 1000)
	start := net.Sched.Now()
	if _, err := net.SendTransferFromCP("sender", "receiver", "PICA", 42, "cross-profile hello", 0); err != nil {
		log.Fatal(err)
	}
	voucher := "transfer/" + string(net.Boot.GuestChannel) + "/PICA"
	deadline := 10 * time.Minute
	for net.GuestApp.Balance("receiver", voucher) != 42 {
		if net.Sched.Now().Sub(start) > deadline {
			log.Fatalf("profile %s: transfer not delivered within %v", profile.Name, deadline)
		}
		net.Run(time.Second)
	}
	delivered := net.Sched.Now().Sub(start).Round(time.Second)
	net.Run(10 * time.Second) // let the relayer's bookkeeping callbacks fire

	// The first client update's transactions, and the first received
	// packet's share of its job's.
	var updateTxs, recvTxs float64
	snap := net.SnapshotTelemetry()
	if s := snap.HistogramSamples("relayer.update.txs"); len(s) > 0 {
		updateTxs = s[0]
	}
	if s := snap.HistogramSamples("relayer.recv.txs"); len(s) > 0 {
		recvTxs = s[0]
	}
	fmt.Printf("%-10s %10s %12d %14.0f %12.0f %14s\n",
		profile.Name, profile.SlotDuration, profile.MaxTransactionSize,
		updateTxs, recvTxs, delivered)
}
