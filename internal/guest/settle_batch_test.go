package guest

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/host"
	"repro/internal/ibc"
)

// settleKind is a commit that settles packets the guest sent — acks or
// timeouts — and what its tests need of it: its payloads, its builder
// calls, its decoder, the event kind it emits per settled packet and the
// application callback it makes for each.
type settleKind[P packetPayload] struct {
	op        byte
	payload   func(p *ibc.Packet, proofLen int) P
	txs       func(b *TxBuilder, ps ...P) []*host.Transaction
	batchLen  func(b *TxBuilder, ps []P, st *State) int
	marshal   func(ps ...P) []byte
	unmarshal func([]byte, *host.HeapMeter) ([]P, error)
	event     string
	// hooks is the packets the application saw this kind's callback for.
	hooks func(m *recordingModule) []ibc.Packet
}

var ackKind = settleKind[*AckPayload]{
	op: OpCommitAck,
	payload: func(p *ibc.Packet, proofLen int) *AckPayload {
		return &AckPayload{Packet: p, Ack: []byte(`{"result":"AQ=="}`), ProofHeight: 1, Proof: bytes.Repeat([]byte{0xab}, proofLen)}
	},
	txs:       (*TxBuilder).AckPacketTxs,
	batchLen:  (*TxBuilder).AckBatchLen,
	marshal:   MarshalAckPayload,
	unmarshal: UnmarshalAckPayloads,
	event:     "PacketAcked",
	hooks:     func(m *recordingModule) []ibc.Packet { return m.acks },
}

var timeoutKind = settleKind[*TimeoutPayload]{
	op: OpCommitTimeout,
	payload: func(p *ibc.Packet, proofLen int) *TimeoutPayload {
		return &TimeoutPayload{Packet: p, ProofHeight: 1, Proof: bytes.Repeat([]byte{0xab}, proofLen)}
	},
	txs:       (*TxBuilder).TimeoutPacketTxs,
	batchLen:  (*TxBuilder).TimeoutBatchLen,
	marshal:   MarshalTimeoutPayload,
	unmarshal: UnmarshalTimeoutPayloads,
	event:     "PacketTimedOut",
	hooks:     func(m *recordingModule) []ibc.Packet { return m.timeouts },
}

// TestCommitSettleBatch runs the batch contract of the recv commit against
// the two commits that settle the guest's own packets.
func TestCommitSettleBatch(t *testing.T) {
	t.Run("ack", func(t *testing.T) { testCommitSettleBatch(t, ackKind) })
	t.Run("timeout", func(t *testing.T) { testCommitSettleBatch(t, timeoutKind) })
}

// sent commits n packets the guest sends on its transfer channel, each
// expiring a minute from now (so a timeout proof can settle it too).
func (e *recvEnv) sent(n int) []*ibc.Packet {
	e.t.Helper()
	st := e.state()
	st.BeginDirect(e.clock.Now(), uint64(e.chain.Slot()))
	ps := make([]*ibc.Packet, n)
	for i := range ps {
		p, err := st.Handler.AppSendPacket("transfer", "channel-0", []byte(fmt.Sprintf("sent-%d", i)), 0, e.clock.Now().Add(time.Minute))
		if err != nil {
			e.t.Fatal(err)
		}
		ps[i] = p
	}
	return ps
}

// settle stages and commits txs; it returns the commit's result and the
// sequences of the packets it settled, in the order the application saw
// them. The commit emits one event per settled packet.
func settle[P packetPayload](e *recvEnv, k settleKind[P], txs []*host.Transaction) (host.TxResult, []uint64) {
	e.t.Helper()
	for _, tx := range txs[:len(txs)-1] {
		e.submit(tx)
	}
	if err := e.chain.Submit(txs[len(txs)-1]); err != nil {
		e.t.Fatal(err)
	}
	before := len(k.hooks(&e.mod.recordingModule))
	b := e.step()
	var seqs []uint64
	for _, p := range k.hooks(&e.mod.recordingModule)[before:] {
		seqs = append(seqs, p.Sequence)
	}
	if n := len(b.EventsOfKind(k.event)); n != len(seqs) {
		e.t.Errorf("%d %s events for %d settled packets, want one each", n, k.event, len(seqs))
	}
	return b.Results[0], seqs
}

func testCommitSettleBatch[P packetPayload](t *testing.T, k settleKind[P]) {
	const proofLen = 700
	perPacket := uint64(proofLen/64+1)*host.CUPerSHA256Block + host.CUPerTrieNode*uint64(1+proofLen/64)
	payloads := func(ps []*ibc.Packet, proofLen int) []P {
		out := make([]P, len(ps))
		for i, p := range ps {
			out[i] = k.payload(p, proofLen)
		}
		return out
	}
	committed := func(e *recvEnv, ps []*ibc.Packet) []uint64 {
		var seqs []uint64
		for _, p := range ps {
			if e.state().Handler.HasCommitment(p) {
				seqs = append(seqs, p.Sequence)
			}
		}
		return seqs
	}
	seqs := func(ps []*ibc.Packet) []uint64 {
		out := make([]uint64, len(ps))
		for i, p := range ps {
			out[i] = p.Sequence
		}
		return out
	}

	e0 := newRecvEnv(t)
	full := k.batchLen(e0.builder, payloads(e0.sent(200), proofLen), e0.state())
	if full <= 3 || full >= 200 {
		t.Fatalf("a full job carries %d of 200 packets; the host limits should bind in between", full)
	}
	for _, n := range []int{1, 3, full} {
		t.Run(fmt.Sprintf("batch=%d", n), func(t *testing.T) {
			e := newRecvEnv(t)
			ps := e.sent(n)
			res, settled := settle(e, k, k.txs(e.builder, payloads(ps, proofLen)...))
			if res.Err != nil {
				t.Fatalf("commit failed: %v", res.Err)
			}
			if !sameSeqs(settled, seqs(ps)) {
				t.Errorf("settled %v, want every packet in staging order", settled)
			}
			if left := committed(e, ps); len(left) != 0 {
				t.Errorf("packets %v still committed", left)
			}
			if got := len(k.hooks(&e.mod.recordingModule)); got != n {
				t.Errorf("application saw %d callbacks, want %d", got, n)
			}
			if want := host.CUBaseInstruction + uint64(n)*perPacket; res.Units != want {
				t.Errorf("commit used %d units, want one base + %d per-packet charges = %d", res.Units, n, want)
			}
		})
	}

	t.Run("already settled is passed over", func(t *testing.T) {
		e := newRecvEnv(t)
		ps := e.sent(3)
		if res, _ := settle(e, k, k.txs(e.builder, k.payload(ps[1], 200))); res.Err != nil {
			t.Fatal(res.Err)
		}
		res, settled := settle(e, k, k.txs(e.builder, payloads(ps, 200)...))
		if res.Err != nil {
			t.Fatalf("a redundant relay failed the batch: %v", res.Err)
		}
		if !sameSeqs(settled, []uint64{1, 3}) {
			t.Errorf("settled %v, want [1 3]", settled)
		}
		if got := len(k.hooks(&e.mod.recordingModule)); got != 3 {
			t.Errorf("application saw %d callbacks, want each packet once", got)
		}
		// Settled alone, the packet fails the transaction as it always did.
		if res, settled := settle(e, k, k.txs(e.builder, k.payload(ps[0], 200))); res.Err == nil || len(settled) != 0 {
			t.Errorf("settling a settled packet alone: err = %v, settled %v", res.Err, settled)
		}
	})

	t.Run("one payload too many is refused whole", func(t *testing.T) {
		// Hooks that burn what they declare: the transaction holds fit
		// payloads, and the builder's rule, held to half of it, fewer.
		const budget = 300_000
		fit := int((host.MaxComputeUnits - host.CUBaseInstruction) / (perPacket + budget))
		e := newRecvEnv(t)
		e.mod.budget = budget
		ps := e.sent(fit + 1)
		if n := k.batchLen(e.builder, payloads(ps, proofLen), e.state()); n >= fit {
			t.Fatalf("the relayer's rule packs %d payloads, the transaction holds %d: nothing to over-pack", n, fit)
		}
		root := e.state().Store.Root()
		res, settled := settle(e, k, k.txs(e.builder, payloads(ps, proofLen)...))
		if !errors.Is(res.Err, ErrRecvBatchTooLarge) {
			t.Fatalf("%d payloads of %d units each: err = %v, want ErrRecvBatchTooLarge", fit+1, perPacket+budget, res.Err)
		}
		if len(settled) != 0 || len(k.hooks(&e.mod.recordingModule)) != 0 || e.state().Store.Root() != root || len(committed(e, ps)) != fit+1 {
			t.Error("a refused batch was partly applied")
		}
		res, settled = settle(e, k, k.txs(e.builder, payloads(ps[:fit], proofLen)...))
		if res.Err != nil || !sameSeqs(settled, seqs(ps[:fit])) {
			t.Fatalf("%d payloads fit the transaction: err = %v, settled %v", fit, res.Err, settled)
		}
	})

	t.Run("declared hook budget shrinks the job", func(t *testing.T) {
		e := newRecvEnv(t)
		ps := payloads(e.sent(200), proofLen)
		e.mod.budget = 100_000
		hooked := k.batchLen(e.builder, ps, e.state())
		if want := int((host.MaxComputeUnits/2 - host.CUBaseInstruction) / (perPacket + 100_000)); hooked != want || hooked >= full {
			t.Errorf("with 100k-unit hooks a job carries %d payloads, want %d (%d without)", hooked, want, full)
		}
	})

	t.Run("tail bomb", func(t *testing.T) {
		// bomb fits the heap as staged and would not as decoded: one payload
		// with a 24 kB proof, then a few bytes per payload each claiming all
		// of it as its tail.
		bomb := func(n int) []byte {
			buf := k.marshal(k.payload(payload(1, 0).Packet, 24_000))
			for i := 1; i < n; i++ {
				buf = stageLater(buf, k.payload(payload(uint64(i+1), 0).Packet, 0), 24_000, nil)
			}
			return buf
		}
		e := newRecvEnv(t)
		root := e.state().Store.Root()
		res, settled := settle(e, k, e.builder.ChunkedUpload(k.op, "", bomb(8), nil, "settle"))
		if !errors.Is(res.Err, host.ErrHeapExhausted) {
			t.Fatalf("err = %v, want ErrHeapExhausted", res.Err)
		}
		if len(settled) != 0 || e.state().Store.Root() != root {
			t.Error("a bomb was partly applied")
		}

		// Refused before its tails are allocated: 64 payloads claiming 24 kB
		// each would be 1.5 MB.
		big := bomb(64)
		if len(big) > host.MaxHeapBytes {
			t.Fatalf("the bomb stages %d bytes; it must fit the heap as staged", len(big))
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := onHeap(k.unmarshal, big)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, host.ErrHeapExhausted) {
			t.Fatalf("err = %v, want ErrHeapExhausted", err)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 4*host.MaxHeapBytes {
			t.Errorf("refusing the bomb allocated %d bytes on a %d-byte heap", got, host.MaxHeapBytes)
		}
	})
}

// TestSettleTxsGolden pins the one-packet ack and timeout jobs to the bytes
// they were built with before packets could share a commit.
func TestSettleTxsGolden(t *testing.T) {
	e := newRecvEnv(t)
	p := payload(7, 1500)
	p.Packet.TimeoutHeight = 42
	digest := func(txs []*host.Transaction) string {
		h := sha256.New()
		for _, tx := range txs {
			fmt.Fprintf(h, "%s %d %d|", tx.Label, tx.Size(), len(tx.Instructions))
			h.Write(tx.Instructions[0].Data)
		}
		return hex.EncodeToString(h.Sum(nil))
	}
	for _, tc := range []struct {
		name, golden string
		txs          []*host.Transaction
	}{
		{"ack", "a160a96239f22fd0d2fbfb2096bb90df628a8de00b1db260dd211439cba187d1", e.builder.AckPacketTxs(&AckPayload{Packet: p.Packet, Ack: []byte(`{"result":"AQ=="}`), ProofHeight: 9, Proof: p.Proof})},
		{"timeout", "d815449c5c23834becf089f75da12adefd697d5aacb8c525d12aad693816820a", e.builder.TimeoutPacketTxs(&TimeoutPayload{Packet: p.Packet, ProofHeight: 9, Proof: p.Proof})},
	} {
		if got := digest(tc.txs); got != tc.golden {
			t.Errorf("one-packet %s transactions changed: digest %s, want %s", tc.name, got, tc.golden)
		}
	}
}
