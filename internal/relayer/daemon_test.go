package relayer

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/guest"
	"repro/internal/host"
	"repro/internal/ibc"
	"repro/internal/netsim"
)

// The tests below pin what only a guest link has: the Fig. 2 milestones,
// chunked client updates, the multi-transaction ReceivePacket flow, host
// fees. They run on the shared harness's guest link, over its "transfer"
// channel.

func newDaemonHarness(t *testing.T) *linkEnv {
	return newLinkEnv(t, guestLink, netsim.Config{})
}

func TestDaemonRelaysOutboundPacketAndAck(t *testing.T) {
	h := newDaemonHarness(t)
	// Send a packet from the guest via a transaction.
	sender := h.keys[1].Public()
	sb := guest.NewTxBuilder(h.contract, sender)
	tx := sb.SendPacketTx(&guest.SendPacketArgs{
		Sender: sender, Port: "transfer", Channel: h.res.GuestChannel, Data: []byte("daemon-test"),
	})
	if err := h.chain.Submit(tx); err != nil {
		t.Fatal(err)
	}
	h.sched.RunFor(3 * time.Minute)

	if len(h.relayer.Traces) != 1 {
		t.Fatalf("traces = %d", len(h.relayer.Traces))
	}
	for _, tr := range h.relayer.Traces {
		if tr.FinalisedAt.IsZero() {
			t.Fatal("packet never finalised")
		}
		if tr.DeliveredAt.IsZero() {
			t.Fatal("packet never delivered to the counterparty")
		}
		if tr.AckedAt.IsZero() {
			t.Fatal("ack never returned")
		}
		if !tr.SentAt.Before(tr.FinalisedAt) || tr.FinalisedAt.After(tr.DeliveredAt) {
			t.Fatalf("milestones out of order: %+v", tr)
		}
	}
	// The ack flow required a client update on the guest (chunked).
	if len(h.relayer.Updates) == 0 {
		t.Fatal("no client updates")
	}
	if h.relayer.Updates[0].Txs < 2 {
		t.Fatalf("update txs = %d", h.relayer.Updates[0].Txs)
	}
	if h.relayer.TotalFees == 0 {
		t.Fatal("relayer paid nothing")
	}
}

func TestDaemonDeliversInboundPacket(t *testing.T) {
	h := newDaemonHarness(t)
	if _, err := h.cp.SendPacket("transfer", h.res.CPChannel, []byte("inbound"), 0, time.Time{}); err != nil {
		t.Fatal(err)
	}
	h.sched.RunFor(4 * time.Minute)

	if len(h.relayer.Recvs) != 1 || h.relayer.Recvs[0].Packets != 1 {
		t.Fatalf("recvs = %+v, want one job of one packet", h.relayer.Recvs)
	}
	if h.relayer.Recvs[0].Txs < 2 {
		t.Fatalf("recv txs = %d", h.relayer.Recvs[0].Txs)
	}
	// The ack went back to the counterparty and cleared its commitment.
	var cleared bool
	for hh := uint64(1); hh <= h.cp.Height(); hh++ {
		for _, p := range h.cp.PacketsAt(hh) {
			if !h.cp.Handler().HasCommitment(p) {
				cleared = true
			}
		}
	}
	if !cleared {
		t.Fatal("counterparty commitment not cleared by relayed ack")
	}
}

func TestDaemonTimeoutFlow(t *testing.T) {
	h := newDaemonHarness(t)
	h.sched.Every(15*time.Second, func() bool {
		h.relayer.CheckTimeouts()
		return true
	})
	sender := h.keys[1].Public()
	sb := guest.NewTxBuilder(h.contract, sender)
	// Send with a timeout so short the cp rejects delivery as expired.
	tx := sb.SendPacketTx(&guest.SendPacketArgs{
		Sender: sender, Port: "transfer", Channel: h.res.GuestChannel,
		Data:             []byte("too-late"),
		TimeoutTimestamp: h.sched.Now().Add(2 * time.Second),
	})
	if err := h.chain.Submit(tx); err != nil {
		t.Fatal(err)
	}
	h.sched.RunFor(5 * time.Minute)

	if h.relayer.TimeoutsRun != 1 {
		t.Fatalf("timeouts run = %d, want 1 (deduped)", h.relayer.TimeoutsRun)
	}
	st, err := h.contract.State(h.chain)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range h.relayer.Traces {
		if st.Handler.HasCommitment(tr.Packet) {
			t.Fatal("commitment not cleared by timeout")
		}
		if !tr.DeliveredAt.IsZero() {
			t.Fatal("expired packet was delivered")
		}
	}
}

// TestCheckTimeoutsOrdersSameScanExpiries pins the timeout scan's
// submission order: Traces is a map, so packets expiring in one scan must
// be sorted by (port, channel, sequence) before their host transactions
// are enqueued — otherwise the host sees them in a run-dependent order.
func TestCheckTimeoutsOrdersSameScanExpiries(t *testing.T) {
	const packets = 6
	run := func() (order []uint64, fees host.Lamports) {
		h := newDaemonHarness(t)
		h.sched.Every(15*time.Second, func() bool {
			h.relayer.CheckTimeouts()
			return true
		})
		sender := h.keys[1].Public()
		sb := guest.NewTxBuilder(h.contract, sender)
		for i := 0; i < packets; i++ {
			tx := sb.SendPacketTx(&guest.SendPacketArgs{
				Sender: sender, Port: "transfer", Channel: h.res.GuestChannel,
				Data:             []byte{'t', byte('0' + i)},
				TimeoutTimestamp: h.sched.Now().Add(2 * time.Second),
			})
			if err := h.chain.Submit(tx); err != nil {
				t.Fatal(err)
			}
		}
		h.sched.RunFor(8 * time.Minute)
		for _, b := range h.chain.BlocksSince(0) {
			for _, ev := range b.Events {
				if e, ok := ev.Payload.(ibc.EventTimeoutPacket); ok {
					order = append(order, e.Packet.Sequence)
				}
			}
		}
		return order, h.relayer.TotalFees
	}
	first, firstFees := run()
	if len(first) != packets {
		t.Fatalf("timed out %d packets, want %d (order %v)", len(first), packets, first)
	}
	for i, seq := range first {
		if seq != uint64(i+1) {
			t.Fatalf("host saw timeouts in order %v, want ascending sequence", first)
		}
	}
	second, secondFees := run()
	if !reflect.DeepEqual(first, second) || firstFees != secondFees {
		t.Fatalf("runs diverged: order %v vs %v, fees %d vs %d", first, second, firstFees, secondFees)
	}
}
