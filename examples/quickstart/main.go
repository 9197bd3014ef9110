// Quickstart: boot a complete guest-blockchain deployment — simulated
// Solana-like host, Guest Contract, validators, relayer, and a Cosmos-like
// counterparty — open an IBC connection and channel, and send one packet
// in each direction.
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
	// A small, fast validator fleet (the full Table I fleet lives in
	// core.DeploymentBehaviours).
	fleet := make([]validator.Behaviour, 5)
	for i := range fleet {
		fleet[i] = validator.Behaviour{
			Active:  true,
			Latency: sim.Uniform{Min: 500 * time.Millisecond, Max: 3 * time.Second},
			Policy:  fees.Policy{Name: "fixed", PriorityFee: 10_000},
		}
	}
	cp := counterparty.DefaultConfig()
	cp.NumValidators = 20

	net, err := core.NewNetwork(core.Config{
		Behaviours: fleet,
		CP:         cp,
		Seed:       2024,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("deployment ready:")
	fmt.Printf("  guest connection %s <-> counterparty connection %s\n",
		net.Boot.GuestConnection, net.Boot.CPConnection)
	fmt.Printf("  guest channel %s <-> counterparty channel %s\n",
		net.Boot.GuestChannel, net.Boot.CPChannel)
	fmt.Printf("  10 MiB state account deposit: $%.0f (recoverable)\n\n", fees.USD(net.Deposit))

	// Guest -> counterparty.
	alice := net.NewUser("alice", 10*host.LamportsPerSOL, "GUEST", 1000)
	if _, err := net.SendTransferFromGuest(alice, "bob", "GUEST", 400, "hello from the guest chain", fees.PriorityPolicy, 0); err != nil {
		log.Fatal(err)
	}
	net.Run(90 * time.Second)
	voucher := "transfer/" + string(net.Boot.CPChannel) + "/GUEST"
	fmt.Printf("after 90s: bob's voucher balance on the counterparty: %d %s\n",
		net.CPApp.Balance("bob", voucher), voucher)

	// Counterparty -> guest.
	net.CPApp.Mint("carol", "PICA", 500)
	if _, err := net.SendTransferFromCP("carol", "dave", "PICA", 200, "hello from the counterparty", 0); err != nil {
		log.Fatal(err)
	}
	net.Run(4 * time.Minute)
	guestVoucher := "transfer/" + string(net.Boot.GuestChannel) + "/PICA"
	fmt.Printf("after 4m: dave's voucher balance on the guest chain: %d %s\n",
		net.GuestApp.Balance("dave", guestVoucher), guestVoucher)

	st, err := net.GuestState()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nguest chain: height %d, %d live trie nodes, root %s\n",
		st.Height(), st.StorageNodeCount(), st.Store.Root().Short())
	snap := net.SnapshotTelemetry()
	if txs := snap.HistogramSamples("relayer.update.txs"); len(txs) > 0 {
		fmt.Printf("first light-client update: %.0f host txs, %.0f signatures, cost %.1f¢\n",
			txs[0], snap.HistogramSamples("relayer.update.sigs")[0], snap.HistogramSamples("relayer.update.cost_cents")[0])
	}
}
