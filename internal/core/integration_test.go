package core

import (
	"testing"
	"time"

	"repro/internal/counterparty"
	"repro/internal/fees"
	"repro/internal/guest"
	"repro/internal/host"
	"repro/internal/sim"
	"repro/internal/validator"
)

func TestUpdateCoalescing(t *testing.T) {
	// Several counterparty packets committed while one client update is
	// in flight must be served by few updates, not one per packet.
	n := testNetwork(t)
	n.CPApp.Mint("burst-sender", "PICA", 1_000_000)
	for i := 0; i < 6; i++ {
		if _, err := n.SendTransferFromCP("burst-sender", "guest-recv", "PICA", 10, "", 0); err != nil {
			t.Fatal(err)
		}
	}
	n.Run(6 * time.Minute)
	if len(n.Relayer.Recvs) != 6 {
		t.Fatalf("delivered %d of 6", len(n.Relayer.Recvs))
	}
	if len(n.Relayer.Updates) >= 6 {
		t.Fatalf("%d updates for 6 packets; expected coalescing", len(n.Relayer.Updates))
	}
	if n.Relayer.TotalFees == 0 {
		t.Fatal("relayer paid no fees")
	}
}

func TestEpochRotationIntegration(t *testing.T) {
	// A validator that stakes mid-run enters the set at the next rotation
	// and its signatures start counting.
	fleet := fastFleet(4)
	late := validator.Behaviour{
		Active:  true,
		JoinAt:  2 * time.Minute,
		Latency: sim.Uniform{Min: 500 * time.Millisecond, Max: 2 * time.Second},
		Policy:  fees.Policy{Name: "late", PriorityFee: 500},
	}
	fleet = append(fleet, late)
	params := guest.DefaultParams()
	params.EpochLength = 400 // ~2.7 minutes of slots
	cp := counterparty.DefaultConfig()
	cp.NumValidators = 10
	cp.BlockInterval = 3 * time.Second
	n, err := NewNetwork(Config{
		GuestParams: params,
		CP:          cp,
		Behaviours:  fleet,
		Seed:        21,
	})
	if err != nil {
		t.Fatal(err)
	}
	alice := n.NewUser("alice", 10*host.LamportsPerSOL, "GUEST", 1_000_000)

	// Traffic across the rotation boundary.
	for i := 0; i < 8; i++ {
		if _, err := n.SendTransferFromGuest(alice, "bob", "GUEST", 1, "", fees.PriorityPolicy, 0); err != nil {
			t.Fatal(err)
		}
		n.Run(90 * time.Second)
	}

	st, err := n.GuestState()
	if err != nil {
		t.Fatal(err)
	}
	if st.CurrentEpoch.Index == 0 {
		t.Fatal("epoch never rotated")
	}
	lateKey := n.ValidatorKeys[4].Public()
	if !st.CurrentEpoch.Has(lateKey) {
		t.Fatal("late joiner not in the rotated epoch")
	}
	if n.Validators[4].SignCount() == 0 {
		t.Fatal("late joiner never signed")
	}
	// The whole pipeline survived the rotation: the last packet acked.
	acked := 0
	for _, tr := range n.Relayer.Traces {
		if !tr.AckedAt.IsZero() {
			acked++
		}
	}
	if acked < 7 {
		t.Fatalf("only %d of 8 packets acked across rotation", acked)
	}
	// The counterparty's guest light client followed the rotation.
	glc, err := n.CP.Handler().Client(n.Boot.GuestOnCPClientID)
	if err != nil {
		t.Fatal(err)
	}
	if glc.Frozen() {
		t.Fatal("guest client frozen")
	}
}

func TestQuorumLossStallsAndRecovers(t *testing.T) {
	// Reproduce the §V-C incident: stopping a pivotal validator halts
	// finalisation; when it resumes, the chain catches up.
	n := testNetwork(t) // 4 equal stakes: quorum needs 3
	alice := n.NewUser("alice", 10*host.LamportsPerSOL, "GUEST", 1_000)

	// Stop two validators: 2 of 4 equal stakes < quorum.
	n.Validators[0].Stop()
	n.Validators[1].Stop()
	if _, err := n.SendTransferFromGuest(alice, "bob", "GUEST", 10, "", fees.PriorityPolicy, 0); err != nil {
		t.Fatal(err)
	}
	n.Run(2 * time.Minute)
	st, err := n.GuestState()
	if err != nil {
		t.Fatal(err)
	}
	if st.Head().Finalised {
		t.Fatal("finalised without quorum")
	}

	// Operators fix their daemons (the §V-C recovery).
	n.Validators[0].Resume()
	n.Validators[1].Resume()
	n.Run(3 * time.Minute)
	st, err = n.GuestState()
	if err != nil {
		t.Fatal(err)
	}
	if !st.Head().Finalised {
		t.Fatal("chain did not recover after operators resumed")
	}
	// The stalled packet eventually delivered.
	voucher := "transfer/" + string(n.Boot.CPChannel) + "/GUEST"
	if got := n.CPApp.Balance("bob", voucher); got != 10 {
		t.Fatalf("packet lost across the stall: bob = %d", got)
	}
}

func TestManyPacketsBothDirections(t *testing.T) {
	n := testNetwork(t)
	alice := n.NewUser("alice", 100*host.LamportsPerSOL, "GUEST", 1_000_000)
	n.CPApp.Mint("carol", "PICA", 1_000_000)

	const each = 10
	for i := 0; i < each; i++ {
		if _, err := n.SendTransferFromGuest(alice, "bob", "GUEST", 1, "", fees.BundlePolicy, 0); err != nil {
			t.Fatal(err)
		}
		if _, err := n.SendTransferFromCP("carol", "dave", "PICA", 1, "", 0); err != nil {
			t.Fatal(err)
		}
		n.Run(20 * time.Second)
	}
	n.Run(5 * time.Minute)

	voucher := "transfer/" + string(n.Boot.CPChannel) + "/GUEST"
	if got := n.CPApp.Balance("bob", voucher); got != each {
		t.Fatalf("bob got %d of %d", got, each)
	}
	guestVoucher := "transfer/" + string(n.Boot.GuestChannel) + "/PICA"
	if got := n.GuestApp.Balance("dave", guestVoucher); got != each {
		t.Fatalf("dave got %d of %d", got, each)
	}
	// Every outbound commitment cleared by its ack.
	st, err := n.GuestState()
	if err != nil {
		t.Fatal(err)
	}
	for key, tr := range n.Relayer.Traces {
		if st.Handler.HasCommitment(tr.Packet) {
			t.Fatalf("commitment %v never cleared", key)
		}
	}
	// Receipts were sealed: guest storage stays small.
	if st.StorageNodeCount() > 500 {
		t.Fatalf("guest trie grew to %d nodes", st.StorageNodeCount())
	}
}
