package core

import (
	"testing"
	"time"

	"repro/internal/ibc"

	"repro/internal/counterparty"
	"repro/internal/fees"
	"repro/internal/host"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/validator"
)

// fastFleet returns a small, quick validator fleet for integration tests.
func fastFleet(n int) []validator.Behaviour {
	out := make([]validator.Behaviour, n)
	for i := range out {
		out[i] = validator.Behaviour{
			Active:  true,
			Latency: sim.Uniform{Min: 500 * time.Millisecond, Max: 2 * time.Second},
			Policy:  fees.Policy{Name: "test", PriorityFee: 1000},
		}
	}
	return out
}

func testNetwork(t *testing.T) *Network {
	t.Helper()
	cp := counterparty.DefaultConfig()
	cp.NumValidators = 12
	cp.BlockInterval = 3 * time.Second
	n, err := NewNetwork(Config{
		CP:         cp,
		Behaviours: fastFleet(4),
		Seed:       7,
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestNetworkBootstrap(t *testing.T) {
	n := testNetwork(t)
	if n.Boot.GuestChannel == "" || n.Boot.CPChannel == "" {
		t.Fatalf("bootstrap incomplete: %+v", n.Boot)
	}
	st, err := n.GuestState()
	if err != nil {
		t.Fatal(err)
	}
	ch, err := st.Handler.Channel("transfer", n.Boot.GuestChannel)
	if err != nil {
		t.Fatal(err)
	}
	if ch.State.String() != "OPEN" {
		t.Fatalf("guest channel state = %v", ch.State)
	}
	cpCh, err := n.CP.Handler().Channel("transfer", n.Boot.CPChannel)
	if err != nil {
		t.Fatal(err)
	}
	if cpCh.State.String() != "OPEN" {
		t.Fatalf("cp channel state = %v", cpCh.State)
	}
	// The 10 MiB deposit matches §V-D (~$14.6k at $200/SOL).
	usd := fees.USD(n.Deposit)
	if usd < 14000 || usd > 15500 {
		t.Fatalf("state deposit = $%.0f, want ≈ $14.6k", usd)
	}
}

func TestGuestToCPTransfer(t *testing.T) {
	n := testNetwork(t)
	alice := n.NewUser("alice", 10*host.LamportsPerSOL, "GUEST", 1_000)

	if _, err := n.SendTransferFromGuest(alice, "cp-bob", "GUEST", 250, "", fees.PriorityPolicy, 0); err != nil {
		t.Fatal(err)
	}
	n.Run(2 * time.Minute)

	// Escrowed on the guest.
	if got := n.GuestApp.Balance(alice.Key.Public().String(), "GUEST"); got != 750 {
		t.Fatalf("alice balance = %d, want 750", got)
	}
	if got := n.GuestApp.EscrowedAmount(n.Boot.GuestChannel, "GUEST"); got != 250 {
		t.Fatalf("escrow = %d, want 250", got)
	}
	// Voucher minted on the counterparty.
	voucher := "transfer/" + string(n.Boot.CPChannel) + "/GUEST"
	if got := n.CPApp.Balance("cp-bob", voucher); got != 250 {
		t.Fatalf("cp-bob voucher balance = %d, want 250", got)
	}
	// The ack came back and cleared the commitment.
	st, err := n.GuestState()
	if err != nil {
		t.Fatal(err)
	}
	traces := n.SnapshotTelemetry().Traces
	if len(traces) != 1 {
		t.Fatalf("traced %d packets, want 1", len(traces))
	}
	if _, ok := traces[0].Span(telemetry.StageAck); !ok {
		t.Fatalf("packet not acked; trace %+v", traces[0])
	}
	if st.Handler.HasCommitment(&ibc.Packet{Sequence: 1, SourcePort: "transfer", SourceChannel: n.Boot.GuestChannel}) {
		t.Fatal("commitment not cleared")
	}
}

// TestCPRelayLog: a counterparty's relay log holds one
// EventPacketsCommitted per block that committed packets, and nothing from
// its handler; together the entries list the packets the chain sent, in
// send order. A relayer's cursor over the log only moves forward and sees
// each entry once.
func TestCPRelayLog(t *testing.T) {
	n := testNetwork(t)
	n.CPApp.Mint("cp-carol", "PICA", 500)

	var sent []*ibc.Packet
	var polled []counterparty.Event
	cursor := 0
	poll := func() {
		evs, next := n.CP.EventsSince(cursor)
		if next < cursor || next-cursor != len(evs) {
			t.Fatalf("cursor %d → %d over %d entries", cursor, next, len(evs))
		}
		polled = append(polled, evs...)
		cursor = next
	}
	// Rounds of 1..4 sends, each round inside one 3 s block window.
	for round := 1; round <= 4; round++ {
		for i := 0; i < round; i++ {
			p, err := n.SendTransferFromCP("cp-carol", "guest-dave", "PICA", 10, "", 0)
			if err != nil {
				t.Fatal(err)
			}
			sent = append(sent, p)
		}
		n.Run(10 * time.Second)
		poll()
	}
	n.Run(5 * time.Minute)
	poll()
	voucher := "transfer/" + string(n.Boot.GuestChannel) + "/PICA"
	if got := n.GuestApp.Balance("guest-dave", voucher); got != 100 {
		t.Fatalf("dave voucher balance = %d, want 100", got)
	}

	log, end := n.CP.EventsSince(0)
	if end != cursor || len(log) != len(polled) {
		t.Fatalf("cursor reads saw %d entries up to %d, the log holds %d up to %d", len(polled), cursor, len(log), end)
	}
	byHeight := make(map[uint64][]*ibc.Packet)
	var listed []*ibc.Packet
	var last uint64
	for i, ev := range log {
		pc, ok := ev.Payload.(counterparty.EventPacketsCommitted)
		if !ok {
			t.Fatalf("entry %d at height %d is %s, want PacketsCommitted", i, ev.Height, ev.Payload.EventKind())
		}
		if ev.Height <= last {
			t.Fatalf("entry %d at height %d follows height %d", i, ev.Height, last)
		}
		if polled[i].Height != ev.Height {
			t.Fatalf("entry %d: cursor reads saw height %d, the full log %d", i, polled[i].Height, ev.Height)
		}
		last = ev.Height
		byHeight[ev.Height] = pc.Packets
		listed = append(listed, pc.Packets...)
	}
	for h := uint64(1); h <= n.CP.Height(); h++ {
		if got, want := len(byHeight[h]), len(n.CP.PacketsAt(h)); got != want {
			t.Fatalf("height %d: log lists %d packets, the block committed %d", h, got, want)
		}
	}
	if len(log) != 4 {
		t.Fatalf("log holds %d entries, want one per round (4)", len(log))
	}
	if len(listed) != len(sent) {
		t.Fatalf("log lists %d packets, %d were sent", len(listed), len(sent))
	}
	for i, p := range listed {
		if p != sent[i] {
			t.Fatalf("listed packet %d is sequence %d, sent was %d", i, p.Sequence, sent[i].Sequence)
		}
	}
}

func TestCPToGuestTransfer(t *testing.T) {
	n := testNetwork(t)
	blocks := n.Host.NewReader()
	n.CPApp.Mint("cp-carol", "PICA", 500)

	recipient := "guest-dave"
	if _, err := n.SendTransferFromCP("cp-carol", recipient, "PICA", 120, "", 0); err != nil {
		t.Fatal(err)
	}
	n.Run(5 * time.Minute)

	if got := n.CPApp.Balance("cp-carol", "PICA"); got != 380 {
		t.Fatalf("carol balance = %d, want 380", got)
	}
	voucher := "transfer/" + string(n.Boot.GuestChannel) + "/PICA"
	if got := n.GuestApp.Balance(recipient, voucher); got != 120 {
		t.Fatalf("dave voucher balance = %d, want 120", got)
	}
	// The light-client update machinery ran (chunked txs).
	snap := n.SnapshotTelemetry()
	updates := snap.HistogramSamples("relayer.update.txs")
	if len(updates) == 0 {
		t.Fatal("no client updates recorded")
	}
	if updates[0] < 2 {
		t.Fatalf("client update used %v txs; expected a chunked upload", updates[0])
	}
	// The recv flow used multiple host transactions.
	if txs := snap.HistogramSamples("relayer.recv.txs"); len(txs) != 1 || txs[0] < 2 || hostResults(blocks.Pull(nil), "recv-packet/commit") != 1 {
		t.Fatalf("recv txs per packet = %v, want one job of one packet in several transactions", txs)
	}
	// The ack rode a finalised guest block back and cleared the cp-side
	// commitment.
	if n.CP.Handler().HasCommitment(mustCPPacket(t, n)) {
		t.Fatal("cp commitment not cleared by relayed ack")
	}
}

// mustCPPacket returns the single packet the counterparty sent.
func mustCPPacket(t *testing.T, n *Network) *ibc.Packet {
	t.Helper()
	pkts := n.CP.PacketsAt(findCPPacketHeight(t, n))
	if len(pkts) != 1 {
		t.Fatalf("cp packets = %d, want 1", len(pkts))
	}
	return pkts[0]
}

func findCPPacketHeight(t *testing.T, n *Network) uint64 {
	t.Helper()
	for h := uint64(1); h <= n.CP.Height(); h++ {
		if len(n.CP.PacketsAt(h)) > 0 {
			return h
		}
	}
	t.Fatal("no cp packet committed")
	return 0
}

func TestRoundTripVoucherReturnsHome(t *testing.T) {
	n := testNetwork(t)
	alice := n.NewUser("alice", 10*host.LamportsPerSOL, "GUEST", 1_000)

	if _, err := n.SendTransferFromGuest(alice, "cp-bob", "GUEST", 300, "", fees.PriorityPolicy, 0); err != nil {
		t.Fatal(err)
	}
	n.Run(3 * time.Minute)

	voucher := "transfer/" + string(n.Boot.CPChannel) + "/GUEST"
	if got := n.CPApp.Balance("cp-bob", voucher); got != 300 {
		t.Fatalf("voucher not minted, got %d", got)
	}

	// Send the voucher home: cp-bob -> alice.
	if _, err := n.SendTransferFromCP("cp-bob", alice.Key.Public().String(), voucher, 300, "", 0); err != nil {
		t.Fatal(err)
	}
	n.Run(5 * time.Minute)

	if got := n.CPApp.Balance("cp-bob", voucher); got != 0 {
		t.Fatalf("voucher not burned, got %d", got)
	}
	if got := n.GuestApp.Balance(alice.Key.Public().String(), "GUEST"); got != 1_000 {
		t.Fatalf("alice did not get tokens back, got %d", got)
	}
	if got := n.GuestApp.EscrowedAmount(n.Boot.GuestChannel, "GUEST"); got != 0 {
		t.Fatalf("escrow not released, got %d", got)
	}
}

// TestRefusedCPSendLeavesNoEscrow: a counterparty-side send the handler
// refuses (here: the channel was closed under it) never became a packet,
// so the escrow PrepareSend took must be rolled back — sender balance and
// channel escrow end as they were.
func TestRefusedCPSendLeavesNoEscrow(t *testing.T) {
	n := testNetwork(t)
	n.CPApp.Mint("cp-carol", "PICA", 500)
	if err := n.CP.Handler().ChanCloseInit("transfer", n.Boot.CPChannel); err != nil {
		t.Fatal(err)
	}
	if _, err := n.SendTransferFromCP("cp-carol", "guest-dave", "PICA", 120, "", 0); err == nil {
		t.Fatal("send on a closed channel was accepted")
	}
	if got := n.CPApp.Balance("cp-carol", "PICA"); got != 500 {
		t.Errorf("carol balance = %d after a refused send, want 500", got)
	}
	if got := n.CPApp.EscrowedAmount(n.Boot.CPChannel, "PICA"); got != 0 {
		t.Errorf("channel escrow = %d after a refused send, want 0", got)
	}
}

// TestRelayerFeesFollowHostProfile: what the relayer reports as paid is
// what the host debited from its key, on a host whose signature fee is not
// Solana's.
func TestRelayerFeesFollowHostProfile(t *testing.T) {
	n, err := NewNetwork(Config{Behaviours: fastFleet(4), Seed: 7, HostProfile: host.NEARLikeProfile()})
	if err != nil {
		t.Fatal(err)
	}
	key := n.Relayer.Key().Public()
	balance, reported := n.Host.Balance(key), n.Relayer.TotalFees
	alice := n.NewUser("alice", 10*host.LamportsPerSOL, "GUEST", 1_000)
	if _, err := n.SendTransferFromGuest(alice, "cp-bob", "GUEST", 250, "", fees.PriorityPolicy, 0); err != nil {
		t.Fatal(err)
	}
	n.CPApp.Mint("cp-carol", "PICA", 500)
	if _, err := n.SendTransferFromCP("cp-carol", "guest-dave", "PICA", 120, "", 0); err != nil {
		t.Fatal(err)
	}
	n.Run(10 * time.Minute)
	paid, reported := balance-n.Host.Balance(key), n.Relayer.TotalFees-reported
	updates := len(n.SnapshotTelemetry().HistogramSamples("relayer.update.txs"))
	if updates == 0 || paid == 0 || paid != reported {
		t.Fatalf("relayer reports %d lamports in fees over %d client updates, the host debited %d", reported, updates, paid)
	}
}
