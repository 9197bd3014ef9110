// Tokentransfer: a fuller ICS-20 scenario on the guest blockchain —
// multiple users transferring in both directions, a voucher round trip
// that un-escrows rather than re-mints, and a packet that times out and
// refunds the sender.
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
	fleet := make([]validator.Behaviour, 6)
	for i := range fleet {
		fleet[i] = validator.Behaviour{
			Active:  true,
			Latency: sim.LogNormal{Mu: 0.9, Sigma: 0.5, Shift: 400 * time.Millisecond},
			Policy:  fees.Policy{Name: "fixed", PriorityFee: 25_000},
		}
	}
	cp := counterparty.DefaultConfig()
	cp.NumValidators = 30
	net, err := core.NewNetwork(core.Config{Behaviours: fleet, CP: cp, Seed: 99})
	if err != nil {
		log.Fatal(err)
	}

	alice := net.NewUser("alice", 10*host.LamportsPerSOL, "SOLG", 10_000)
	erin := net.NewUser("erin", 10*host.LamportsPerSOL, "SOLG", 2_000)
	net.CPApp.Mint("bob", "PICA", 5_000)

	fmt.Println("== outbound transfers (guest -> counterparty) ==")
	if _, err := net.SendTransferFromGuest(alice, "bob", "SOLG", 1_500, "", fees.BundlePolicy, 0); err != nil {
		log.Fatal(err)
	}
	if _, err := net.SendTransferFromGuest(erin, "frank", "SOLG", 700, "", fees.PriorityPolicy, 0); err != nil {
		log.Fatal(err)
	}
	net.Run(2 * time.Minute)
	voucher := "transfer/" + string(net.Boot.CPChannel) + "/SOLG"
	fmt.Printf("bob:   %5d %s\n", net.CPApp.Balance("bob", voucher), voucher)
	fmt.Printf("frank: %5d %s\n", net.CPApp.Balance("frank", voucher), voucher)
	fmt.Printf("escrowed on guest: %d SOLG\n\n", net.GuestApp.EscrowedAmount(net.Boot.GuestChannel, "SOLG"))

	fmt.Println("== voucher round trip (returns home, un-escrows) ==")
	if _, err := net.SendTransferFromCP("bob", alice.Key.Public().String(), voucher, 500, "", 0); err != nil {
		log.Fatal(err)
	}
	net.Run(4 * time.Minute)
	fmt.Printf("alice SOLG after return: %d (started 10000, sent 1500, got 500 back)\n",
		net.GuestApp.Balance(alice.Key.Public().String(), "SOLG"))
	fmt.Printf("escrow after return: %d SOLG\n\n", net.GuestApp.EscrowedAmount(net.Boot.GuestChannel, "SOLG"))

	fmt.Println("== native counterparty token to the guest ==")
	if _, err := net.SendTransferFromCP("bob", "grace", "PICA", 1_000, "", 0); err != nil {
		log.Fatal(err)
	}
	net.Run(4 * time.Minute)
	guestVoucher := "transfer/" + string(net.Boot.GuestChannel) + "/PICA"
	fmt.Printf("grace on guest: %d %s\n\n", net.GuestApp.Balance("grace", guestVoucher), guestVoucher)

	fmt.Println("== timeout and refund ==")
	// A 1-second timeout cannot possibly be delivered (finalisation alone
	// takes several seconds); the relayer proves non-delivery and the
	// transfer app refunds the escrow.
	if _, err := net.SendTransferFromGuest(erin, "nobody", "SOLG", 999, "", fees.PriorityPolicy, 1*time.Second); err != nil {
		log.Fatal(err)
	}
	before := net.GuestApp.Balance(erin.Key.Public().String(), "SOLG")
	net.Run(6 * time.Minute)
	after := net.GuestApp.Balance(erin.Key.Public().String(), "SOLG")
	fmt.Printf("erin before refund: %d, after: %d (999 refunded: %v)\n", before, after, after == before+999)
	fmt.Printf("timeouts proven by relayer: %d\n", net.SnapshotTelemetry().Counter("relayer.timeouts_submitted"))
}
