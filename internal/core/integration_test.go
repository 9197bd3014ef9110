package core

import (
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/counterparty"
	"repro/internal/fees"
	"repro/internal/guest"
	"repro/internal/host"
	"repro/internal/ibc"
	"repro/internal/middleware"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/transfer"
	"repro/internal/validator"
)

func TestUpdateCoalescing(t *testing.T) {
	// Several counterparty packets committed while one client update is
	// in flight must be served by few updates, not one per packet.
	n := testNetwork(t)
	blocks := n.Host.NewReader()
	n.CPApp.Mint("burst-sender", "PICA", 1_000_000)
	for i := 0; i < 6; i++ {
		if _, err := n.SendTransferFromCP("burst-sender", "guest-recv", "PICA", 10, "", 0); err != nil {
			t.Fatal(err)
		}
	}
	n.Run(6 * time.Minute)
	// A landed recv job observes one recv.txs sample per packet it carried.
	snap := n.SnapshotTelemetry()
	if delivered := len(snap.HistogramSamples("relayer.recv.txs")); delivered != 6 {
		t.Fatalf("delivered %d of 6", delivered)
	}
	// Packets provable behind one update share a chunk sequence and commit.
	if jobs := hostResults(blocks.Pull(nil), "recv-packet/commit"); jobs >= 6 {
		t.Fatalf("%d recv jobs for 6 packets; expected batching", jobs)
	}
	if updates := len(snap.HistogramSamples("relayer.update.txs")); updates >= 6 {
		t.Fatalf("%d updates for 6 packets; expected coalescing", updates)
	}
	if n.Relayer.TotalFees == 0 {
		t.Fatal("relayer paid no fees")
	}
}

// hostResults counts the host transactions in blocks labelled label.
func hostResults(blocks []*host.Block, label string) int {
	count := 0
	for _, b := range blocks {
		for _, res := range b.Results {
			if res.Label == label {
				count++
			}
		}
	}
	return count
}

// TestRecvBatchingRespectsHostLimits: 40 counterparty packets on two
// channels, committed while a client update is in flight, are all provable
// behind the next one. Each lane packs them into jobs that fit the host's
// per-invocation limits with the largest memo the load generator draws and
// a metered recv hook on top of the fees and forwarding layers, at under
// 1.2 host transactions per packet; every packet is delivered and acked
// exactly once.
func TestRecvBatchingRespectsHostLimits(t *testing.T) {
	const perChannel, amount, hookBudget = 20, 7, 60_000
	const maxMemo = 512 // loadgen.DefaultSizes().MemoMax (loadgen imports core)
	cp := counterparty.DefaultConfig()
	cp.NumValidators = 12
	cp.BlockInterval = 3 * time.Second
	stack := []MiddlewareSpec{
		{Kind: MiddlewareCallbacks},
		{Kind: MiddlewareFees, Fees: middleware.FeeSchedule{Denom: "fee", RecvFee: 3, AckFee: 2, TimeoutFee: 4}},
		{Kind: MiddlewareForward},
	}
	n, err := NewNetwork(Config{CP: cp, Behaviours: fastFleet(4), Seed: 7, Channels: []ChannelSpec{
		{GuestPort: "transfer", CPPort: "transfer", GuestMiddleware: stack},
		{GuestPort: "transfer-1", CPPort: "transfer-1", GuestMiddleware: stack},
	}})
	if err != nil {
		t.Fatal(err)
	}
	reader := n.Host.NewReader()
	hooked := make(map[ibc.ChannelID]int)
	for _, rt := range n.Channels {
		rt.CPApp.Mint("burst-sender", "PICA", 1_000_000)
		rt.GuestStack.Middleware("callbacks").(*middleware.Callbacks).Register(rt.Spec.GuestPort, rt.GuestChannel,
			&middleware.Callback{Budget: hookBudget, OnRecv: func(p ibc.Packet, m middleware.Meter) error {
				hooked[p.DestChannel]++
				return m.Consume(hookBudget)
			}})
	}
	send := func(ch int) *ibc.Packet {
		p, err := n.SendTransferFromCPOn(ch, "burst-sender", "guest-recv", "PICA", amount,
			strings.Repeat("m", maxMemo), 0)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	// The first packet starts a client update; the rest commit behind it.
	sent := []*ibc.Packet{send(0)}
	n.Run(cp.BlockInterval + time.Second)
	if snap := n.SnapshotTelemetry(); len(snap.HistogramSamples("relayer.update.txs")) != 0 || len(snap.HistogramSamples("relayer.recv.txs")) != 0 {
		t.Fatal("the first update already landed; the burst would not queue behind it")
	}
	for i := 1; i < 2*perChannel; i++ {
		sent = append(sent, send(i%2))
	}

	recvTxs, jobs := 0, 0
	for i := 0; i < 60; i++ {
		n.Run(10 * time.Second)
		blocks := reader.Pull(nil)
		jobs += hostResults(blocks, "recv-packet/commit")
		for _, b := range blocks {
			for _, res := range b.Results {
				if !strings.HasPrefix(res.Label, "recv-packet/") {
					continue
				}
				recvTxs++
				if res.Err != nil {
					t.Errorf("%s failed: %v", res.Label, res.Err)
				}
				if res.Units > host.MaxComputeUnits/2 {
					t.Errorf("%s used %d compute units, above half the budget", res.Label, res.Units)
				}
			}
		}
	}

	delivered := len(n.SnapshotTelemetry().HistogramSamples("relayer.recv.txs"))
	if delivered != len(sent) {
		t.Fatalf("delivered %d of %d", delivered, len(sent))
	}
	// Every hook burns its whole allowance, so the compute bound caps a job
	// well below what the heap alone would admit.
	if most := int(host.MaxComputeUnits / 2 / hookBudget); jobs*most < delivered {
		t.Errorf("%d jobs carried %d packets; %d-unit hooks allow at most %d a job", jobs, delivered, hookBudget, most)
	}
	t.Logf("%d packets in %d jobs, %d recv transactions", delivered, jobs, recvTxs)
	if perPacket := float64(recvTxs) / float64(len(sent)); perPacket >= 1.2 {
		t.Errorf("%d recv transactions in %d jobs for %d packets = %.2f per packet, want < 1.2", recvTxs, jobs, len(sent), perPacket)
	}
	for i, rt := range n.Channels {
		voucher := transfer.VoucherPrefix(rt.Spec.GuestPort, rt.GuestChannel) + "PICA"
		if got := rt.GuestApp.Balance("guest-recv", voucher); got != perChannel*amount {
			t.Errorf("channel %d: receiver holds %d, want %d (each packet once)", i, got, perChannel*amount)
		}
		if hooked[rt.GuestChannel] != perChannel {
			t.Errorf("channel %d: recv hook ran %d times, want %d", i, hooked[rt.GuestChannel], perChannel)
		}
	}
	for _, p := range sent {
		if n.CP.Handler().HasCommitment(p) {
			t.Errorf("counterparty still commits %s/%d: never acked", p.SourceChannel, p.Sequence)
		}
	}
}

// TestOrderedInboundBatch: counterparty packets on an Ordered channel
// share a recv job like any others — applied in sequence by one commit,
// settled once, never resubmitted.
func TestOrderedInboundBatch(t *testing.T) {
	const packets = 6
	cp := counterparty.DefaultConfig()
	cp.NumValidators = 12
	cp.BlockInterval = 3 * time.Second
	n, err := NewNetwork(Config{CP: cp, Behaviours: fastFleet(4), Seed: 7, Channels: []ChannelSpec{{Ordering: ibc.Ordered}}})
	if err != nil {
		t.Fatal(err)
	}
	blocks := n.Host.NewReader()
	n.CPApp.Mint("burst-sender", "PICA", 1_000_000)
	var sent []*ibc.Packet
	for i := 0; i < packets; i++ {
		p, err := n.SendTransferFromCP("burst-sender", "guest-recv", "PICA", 10, "", 0)
		if err != nil {
			t.Fatal(err)
		}
		sent = append(sent, p)
	}
	n.Run(6 * time.Minute)

	// One job: one commit, and one recv.txs sample per packet, each its
	// share of the job's transactions.
	txs := n.SnapshotTelemetry().HistogramSamples("relayer.recv.txs")
	run := blocks.Pull(nil)
	if commits := hostResults(run, "recv-packet/commit"); commits != 1 || len(txs) != packets {
		t.Fatalf("%d recv commits delivered %d packets, want one job of %d", commits, len(txs), packets)
	}
	recvTxs := 0
	for _, b := range run {
		for _, res := range b.Results {
			if strings.HasPrefix(res.Label, "recv-packet/") {
				recvTxs++
				if res.Err != nil {
					t.Errorf("%s failed: %v", res.Label, res.Err)
				}
			}
		}
	}
	if built := math.Round(txs[0] * packets); float64(recvTxs) != built {
		t.Errorf("%d recv transactions on the host, the one job built %v: something was resubmitted", recvTxs, built)
	}
	voucher := transfer.VoucherPrefix("transfer", n.Boot.GuestChannel) + "PICA"
	if got := n.GuestApp.Balance("guest-recv", voucher); got != packets*10 {
		t.Errorf("receiver holds %d, want %d (each packet once)", got, packets*10)
	}
	st, err := n.GuestState()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range sent {
		if !st.Handler.PacketDelivered(p) {
			t.Errorf("guest does not show packet %d delivered", p.Sequence)
		}
		if n.CP.Handler().HasCommitment(p) {
			t.Errorf("counterparty still commits packet %d: never acked", p.Sequence)
		}
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
	for _, tr := range n.SnapshotTelemetry().Traces {
		if _, ok := tr.Span(telemetry.StageAck); ok {
			acked++
		}
	}
	if acked < 7 {
		t.Fatalf("only %d of 8 packets acked across rotation", acked)
	}
}

func TestQuorumLossStallsAndRecovers(t *testing.T) {
	// Reproduce the §V-C incident: a pivotal validator going dark halts
	// finalisation; when its node comes back, the chain catches up.
	n := testNetwork(t) // 4 equal stakes: quorum needs 3
	alice := n.NewUser("alice", 10*host.LamportsPerSOL, "GUEST", 1_000)

	// Crash two validators' nodes: 2 of 4 equal stakes < quorum.
	n.Net.Crash(netsim.ValidatorNode(0))
	n.Net.Crash(netsim.ValidatorNode(1))
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

	// Operators bring their nodes back (the §V-C recovery).
	n.Net.Heal(netsim.ValidatorNode(0))
	n.Net.Heal(netsim.ValidatorNode(1))
	n.Run(3 * time.Minute)
	st, err = n.GuestState()
	if err != nil {
		t.Fatal(err)
	}
	if !st.Head().Finalised {
		t.Fatal("chain did not recover after the nodes came back")
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
	for seq := uint64(1); seq <= each; seq++ {
		if st.Handler.HasCommitment(&ibc.Packet{Sequence: seq, SourcePort: "transfer", SourceChannel: n.Boot.GuestChannel}) {
			t.Fatalf("commitment %d never cleared", seq)
		}
	}
	// Receipts were sealed: guest storage stays small.
	if st.StorageNodeCount() > 500 {
		t.Fatalf("guest trie grew to %d nodes", st.StorageNodeCount())
	}
}
