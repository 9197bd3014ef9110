package relayer

import (
	"testing"
	"time"

	"repro/internal/guest"
	"repro/internal/host"
	"repro/internal/ibc"
	"repro/internal/netsim"
	"repro/internal/transfer"
	"repro/internal/wire"
)

// TestExpiredRecvInFlushedJobLeftToTimeout: the cosmos chain commits more
// packets on the bank channel than one recv job holds, the last few with a
// timeout that expires before the client update the guest needs for them
// lands. The update's job takes the live packets at the front; the flush
// that follows its landing puts the expired ones in a job with the live
// rest. The guest applies that job's live packets and passes over the
// expired ones, which the relayer cannot see fail: it settles each packet
// by the guest's state, so the expired ones are not counted delivered and
// the timeout scan refunds their sender, each exactly once.
func TestExpiredRecvInFlushedJobLeftToTimeout(t *testing.T) {
	e := newLinkEnv(t, guestLink, netsim.Config{})
	r := e.relayer
	e.scanTimeouts()

	const amount, expiring = 10, 3
	// Size the live run by what it stages: one packet more than a recv job
	// holds, so the job the update binds cannot take them all.
	g := r.ends[1].(*guestEnd)
	var staged []*guest.RecvPayload
	for len(staged) == 0 || g.builder.RecvBatchLen(staged, g.st) == len(staged) {
		p := e.sendBack(t, amount, 0)
		_, proof, err := e.away.Store().ProveMembership(ibc.CommitmentPath(p.SourcePort, p.SourceChannel, p.Sequence))
		if err != nil {
			t.Fatal(err)
		}
		staged = append(staged, &guest.RecvPayload{Packet: p, Proof: proof})
	}
	live := uint64(len(staged))
	var tail []*ibc.Packet
	for i := 0; i < expiring; i++ {
		tail = append(tail, e.sendBack(t, amount, time.Second))
	}
	e.sched.RunFor(20 * time.Minute)

	if got := count(e.hostLabels, "recv-packet/commit"); got < 2 {
		t.Fatalf("%d recv commits, want the update's job and a flushed one; the scenario did not run", got)
	}
	if got, want := e.homeApp.Balance("dave", transfer.VoucherPrefix(bankPort, e.homeCh)+"COIN"), live*amount; got != want {
		t.Errorf("dave holds %d vouchers, want %d (every live packet exactly once)", got, want)
	}
	if d, a := e.counter("delivered"), e.counter("acks"); d != live || a != live {
		t.Errorf("delivered = %d, acks = %d, want %d each (the expired packets are neither)", d, a, live)
	}
	if n := len(e.tel.Metrics.Snapshot().HistogramSamples("relayer.recv.txs")); n != int(live) {
		t.Errorf("recv jobs observed %d delivered packets, want %d", n, live)
	}
	if got, n := e.awayApp.Balance("carol", "COIN"), e.counter("timeouts_submitted"); got != expiring*amount || n != expiring {
		t.Errorf("carol holds %d COIN after %d timeout submissions, want %d after %d (each expired packet refunded exactly once)",
			got, n, expiring*amount, expiring)
	}
	for _, p := range tail {
		if e.away.Handler().HasCommitment(p) {
			t.Errorf("away chain still commits expired packet %d: never timed out", p.Sequence)
		}
	}
	if n := len(r.traces); n != 0 {
		t.Errorf("%d traces left open", n)
	}
	if n := e.guestState(t).StagingBuffers(); n != 0 {
		t.Errorf("%d staging buffers left open", n)
	}
}

// TestGuestRefusedAckJobRequeued: the cosmos chain acknowledges a packet the
// guest sent, and the guest refuses the commit of the job relaying that ack
// in execution (it names a buffer the relayer never staged) — which the
// relayer sees only as its transactions accepted. The guest still commits
// the packet, so the ack goes back to the ack queue and the next flush
// submits it again: the packet is acknowledged exactly once, and the
// refused job's buffer is closed.
func TestGuestRefusedAckJobRequeued(t *testing.T) {
	e := newLinkEnv(t, guestLink, netsim.Config{})
	refused := false
	e.hostIntercept = func(tx *host.Transaction) *host.Transaction {
		if tx.Label != "ack-packet/commit" || refused {
			return tx
		}
		refused = true
		id := wire.NewReader(tx.Instructions[0].Data[1:]).U64()
		bad := *tx
		bad.Instructions = []host.Instruction{tx.Instructions[0]}
		bad.Instructions[0].Data = guest.EncodeCommit(guest.OpCommitAck, &guest.CommitArgs{BufferID: id + 1<<32})
		return &bad
	}
	e.send(t, 50, 0)
	e.sched.RunFor(10 * time.Minute)

	if !refused {
		t.Fatal("no ack job reached the host; the scenario did not run")
	}
	if got := count(e.hostLabels, "ack-packet/commit"); got != 2 {
		t.Errorf("%d ack commits, want 2: the refused one and its resubmission", got)
	}
	e.wantTransferred(t, 50, 50)
	if a, c := e.counter("acks"), e.counter("ch."+string(e.homeCh)+".acks_to_guest"); a != 1 || c != 1 {
		t.Errorf("acks = %d, acks_to_guest = %d, want 1 each (exactly once)", a, c)
	}
	if got := count(e.hostLabels, "close-buffer"); got != 1 {
		t.Errorf("%d buffer closes, want 1 (the refused ack job)", got)
	}
	if n := e.guestState(t).StagingBuffers(); n != 0 {
		t.Errorf("%d staging buffers left open", n)
	}
}
