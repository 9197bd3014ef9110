package relayer

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/counterparty"
	"repro/internal/guest"
	"repro/internal/host"
	"repro/internal/ibc"
	"repro/internal/netsim"
	"repro/internal/telemetry"
)

// The tests below pin what only a guest link has: the Fig. 2 tracer spans,
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

	// Fig. 2's milestones are the packet's tracer spans.
	traces := h.tel.Tracer.Snapshot()
	if len(traces) != 1 {
		t.Fatalf("traced %d packets, want 1", len(traces))
	}
	var at []time.Time
	for _, stage := range []string{telemetry.StageSend, telemetry.StageFinalise, telemetry.StageRecv, telemetry.StageAck} {
		span, ok := traces[0].Span(stage)
		if !ok {
			t.Fatalf("no %s span: %+v", stage, traces[0])
		}
		at = append(at, span.At)
	}
	if !at[0].Before(at[1]) || at[1].After(at[2]) || at[2].After(at[3]) {
		t.Fatalf("milestones out of order: %+v", traces[0])
	}
	if len(h.relayer.traces) != 0 {
		t.Fatalf("%d traces held for a packet that cannot expire", len(h.relayer.traces))
	}
	// The ack flow required a client update on the guest (chunked).
	updates := h.tel.Metrics.Snapshot().HistogramSamples("relayer.update.txs")
	if len(updates) == 0 {
		t.Fatal("no client updates")
	}
	if updates[0] < 2 {
		t.Fatalf("update txs = %v", updates[0])
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

	// One job of one packet: one recv.txs sample, and one commit on the host.
	if txs := h.tel.Metrics.Snapshot().HistogramSamples("relayer.recv.txs"); len(txs) != 1 || txs[0] < 2 {
		t.Fatalf("recv txs per packet = %v, want one packet in at least 2 transactions", txs)
	}
	commits := 0
	for _, b := range h.hostBlocks.Pull(nil) {
		for _, res := range b.Results {
			if res.Label == "recv-packet/commit" {
				commits++
			}
		}
	}
	if commits != 1 {
		t.Fatalf("%d recv commits on the host, want one job", commits)
	}
	// The ack went back to the counterparty and cleared its commitment.
	var cleared bool
	log, _ := h.cp.EventsSince(0)
	for _, ev := range log {
		for _, p := range ev.Payload.(counterparty.EventPacketsCommitted).Packets {
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

	if n := h.counter("timeouts_submitted"); n != 1 {
		t.Fatalf("timeouts submitted = %d, want 1 (deduped)", n)
	}
	st, err := h.contract.State(h.chain)
	if err != nil {
		t.Fatal(err)
	}
	p := &ibc.Packet{Sequence: 1, SourcePort: "transfer", SourceChannel: h.res.GuestChannel}
	if st.Handler.HasCommitment(p) {
		t.Fatal("commitment not cleared by timeout")
	}
	tr, _ := traceOf(h.tel.Tracer, traceKey(p))
	if _, ok := tr.Span(telemetry.StageTimeout); !ok {
		t.Fatalf("no timeout span: %+v", tr)
	}
	if _, ok := tr.Span(telemetry.StageRecv); ok {
		t.Fatal("expired packet was delivered")
	}
	if len(h.relayer.traces) != 0 {
		t.Fatalf("%d traces left once the timeout cleared the commitment", len(h.relayer.traces))
	}
}

// traceOf is key's trace in the tracer's snapshot, and whether it exists.
func traceOf(tr *telemetry.Tracer, key string) (telemetry.Trace, bool) {
	for _, got := range tr.Snapshot() {
		if got.Key == key {
			return got, true
		}
	}
	return telemetry.Trace{}, false
}

// TestCheckTimeoutsOrdersSameScanExpiries pins the timeout scan's
// submission order: the trace table is a map, so packets expiring in one
// scan must be sorted by (side, port, channel, sequence) before their host
// transactions are enqueued — otherwise the host sees them in a
// run-dependent order. The six expire in one scan on one channel, so the
// guest end stages them as one job with one commit.
func TestCheckTimeoutsOrdersSameScanExpiries(t *testing.T) {
	const packets = 6
	run := func() (order []uint64, commits int, fees host.Lamports) {
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
		for _, b := range h.hostBlocks.Pull(nil) {
			for _, ev := range b.Events {
				if e, ok := ev.Payload.(ibc.EventTimeoutPacket); ok {
					order = append(order, e.Packet.Sequence)
				}
			}
			for _, res := range b.Results {
				if res.Label == "timeout-packet/commit" {
					commits++
				}
			}
		}
		return order, commits, h.relayer.TotalFees
	}
	first, commits, firstFees := run()
	if len(first) != packets {
		t.Fatalf("timed out %d packets, want %d (order %v)", len(first), packets, first)
	}
	if commits != 1 {
		t.Fatalf("%d timeouts took %d commits, want one job", packets, commits)
	}
	for i, seq := range first {
		if seq != uint64(i+1) {
			t.Fatalf("host saw timeouts in order %v, want ascending sequence", first)
		}
	}
	second, _, secondFees := run()
	if !reflect.DeepEqual(first, second) || firstFees != secondFees {
		t.Fatalf("runs diverged: order %v vs %v, fees %d vs %d", first, second, firstFees, secondFees)
	}
}

// TestMarkSpellsKeyOnStack: the relayer spells a packet's tracer key on its
// stack at each mark, so marking a traced packet allocates nothing.
func TestMarkSpellsKeyOnStack(t *testing.T) {
	h := newDaemonHarness(t)
	side := -1
	for i, e := range h.relayer.ends {
		if _, ok := e.(*guestEnd); ok {
			side = i
		}
	}
	p := &ibc.Packet{Sequence: 7, SourcePort: "transfer", SourceChannel: h.res.GuestChannel}
	now := h.sched.Now()
	h.relayer.mark(side, p, telemetry.StageSend, now)
	if n := testing.AllocsPerRun(100, func() { h.relayer.mark(side, p, telemetry.StageRecv, now) }); n != 0 {
		t.Fatalf("marking a traced packet: %.0f allocations, want 0", n)
	}
	tr, ok := traceOf(h.tel.Tracer, traceKey(p))
	if _, recv := tr.Span(telemetry.StageRecv); !ok || !recv {
		t.Fatalf("trace %q = %+v, %v: want send and recv", traceKey(p), tr, ok)
	}
}
