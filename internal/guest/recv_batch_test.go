package guest

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"testing"

	"repro/internal/cryptoutil"
	"repro/internal/host"
	"repro/internal/ibc"
	"repro/internal/wire"
)

// badProof is the one proof recvEnv's client rejects.
var badProof = []byte("bad-proof")

// pickyClient accepts every proof but badProof.
type pickyClient struct{ permissiveClient }

func (pickyClient) VerifyMembership(_ ibc.Height, _ string, _ []byte, proof []byte) error {
	if bytes.Equal(proof, badProof) {
		return ibc.ErrProofVerification
	}
	return nil
}

// hookedModule is a recording application whose recv path charges the
// delivering transaction's meter: it declares budget units per delivery
// (ibc.RecvBudgeter) and burns exactly that.
type hookedModule struct {
	recordingModule
	st     *State
	budget uint64
}

func (m *hookedModule) RecvBudget(ibc.PortID, ibc.ChannelID) uint64 { return m.budget }

func (m *hookedModule) OnRecvPacket(p ibc.Packet) ([]byte, error) {
	if err := m.st.Meter().Consume(m.budget); err != nil {
		return nil, err
	}
	return m.recordingModule.OnRecvPacket(p)
}

// recvEnv is a contract with an open "transfer" channel behind a
// recording application, and a funded relayer's builder.
type recvEnv struct {
	*env
	mod     *hookedModule
	builder *TxBuilder
}

func newRecvEnv(t *testing.T) *recvEnv {
	t.Helper()
	e := &recvEnv{env: newEnv(t, 2)}
	st := e.state()
	e.mod = &hookedModule{st: st}
	st.BeginDirect(e.clock.Now(), uint64(e.chain.Slot()))
	if err := st.Handler.BindPort("transfer", e.mod); err != nil {
		t.Fatal(err)
	}
	if err := st.Handler.CreateClient("test-client", &pickyClient{}); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Handler.ConnOpenInit("test-client", "their-client"); err != nil {
		t.Fatal(err)
	}
	if err := forceOpen(st, "transfer"); err != nil {
		t.Fatal(err)
	}
	relayer := cryptoutil.GenerateKey("recv-relayer").Public()
	e.chain.Fund(relayer, 100*host.LamportsPerSOL)
	e.builder = NewTxBuilder(e.contract, relayer)
	return e
}

// payload is the recv payload of the counterparty's packet seq, with a
// proof of proofLen filler bytes.
func payload(seq uint64, proofLen int) *RecvPayload {
	return &RecvPayload{
		Packet: &ibc.Packet{
			Sequence:   seq,
			SourcePort: "transfer", SourceChannel: "channel-9",
			DestPort: "transfer", DestChannel: "channel-0",
			Data: []byte(fmt.Sprintf("packet-%d", seq)),
		},
		ProofHeight: 1,
		Proof:       bytes.Repeat([]byte{0xab}, proofLen),
	}
}

func payloads(n, proofLen int) []*RecvPayload {
	ps := make([]*RecvPayload, n)
	for i := range ps {
		ps[i] = payload(uint64(i+1), proofLen)
	}
	return ps
}

// run stages and commits txs; it returns the commit's result and the
// sequences of the delivery events it emitted, in order.
func (e *recvEnv) run(txs []*host.Transaction) (host.TxResult, []uint64) {
	e.t.Helper()
	for _, tx := range txs[:len(txs)-1] {
		e.submit(tx)
	}
	if err := e.chain.Submit(txs[len(txs)-1]); err != nil {
		e.t.Fatal(err)
	}
	b := e.step()
	var delivered []uint64
	for _, ev := range b.Events {
		if d, ok := ev.Payload.(EventPacketDelivered); ok {
			delivered = append(delivered, d.Packet.Sequence)
		}
	}
	return b.Results[0], delivered
}

func (e *recvEnv) receipted(ps []*RecvPayload) []uint64 {
	var seqs []uint64
	for _, p := range ps {
		if e.state().Handler.PacketDelivered(p.Packet) {
			seqs = append(seqs, p.Packet.Sequence)
		}
	}
	return seqs
}

func seqsOf(ps []*RecvPayload) []uint64 {
	seqs := make([]uint64, len(ps))
	for i, p := range ps {
		seqs[i] = p.Packet.Sequence
	}
	return seqs
}

func sameSeqs(a, b []uint64) bool {
	return fmt.Sprint(a) == fmt.Sprint(b)
}

// TestCommitRecvBatch: a commit applies every packet staged in its buffer
// — N receipts, N delivery events in staging order, N application
// deliveries — and charges each packet's proof cost on top of one base.
func TestCommitRecvBatch(t *testing.T) {
	const proofLen = 700
	perPacket := uint64(proofLen/64+1)*host.CUPerSHA256Block + host.CUPerTrieNode*uint64(1+proofLen/64)
	e0 := newRecvEnv(t)
	full := e0.builder.RecvBatchLen(payloads(200, proofLen), e0.state())
	if full <= 3 || full >= 200 {
		t.Fatalf("a full job carries %d of 200 packets; the host limits should bind in between", full)
	}
	for _, n := range []int{1, 3, full} {
		t.Run(fmt.Sprintf("batch=%d", n), func(t *testing.T) {
			e := newRecvEnv(t)
			ps := payloads(n, proofLen)
			if staged := len(MarshalRecvPayload(ps...)); staged > host.MaxHeapBytes {
				t.Fatalf("job stages %d bytes, above the %d-byte heap", staged, host.MaxHeapBytes)
			}
			res, delivered := e.run(e.builder.RecvPacketTxs(ps...))
			if res.Err != nil {
				t.Fatalf("commit failed: %v", res.Err)
			}
			if !sameSeqs(delivered, seqsOf(ps)) {
				t.Errorf("delivery events %v, want one per packet in staging order", delivered)
			}
			if got := e.receipted(ps); len(got) != n {
				t.Errorf("%d of %d packets receipted", len(got), n)
			}
			if len(e.mod.recvd) != n {
				t.Errorf("application saw %d deliveries, want %d", len(e.mod.recvd), n)
			}
			if want := host.CUBaseInstruction + uint64(n)*perPacket; res.Units != want {
				t.Errorf("commit used %d units, want one base + %d per-packet charges = %d", res.Units, n, want)
			}
			if res.Units > host.MaxComputeUnits/2 {
				t.Errorf("commit used %d units, above half the budget", res.Units)
			}
		})
	}
	// One more packet than a full job no longer fits one of the limits.
	over := payloads(full+1, proofLen)
	if staged, units := len(MarshalRecvPayload(over...)), host.CUBaseInstruction+uint64(full+1)*perPacket; staged <= host.MaxHeapBytes && units <= host.MaxComputeUnits/2 {
		t.Errorf("RecvBatchLen stops at %d packets, but %d still fit (%d bytes, %d units)", full, full+1, staged, units)
	}
	if one := e0.builder.RecvBatchLen(payloads(2, host.MaxHeapBytes), e0.state()); one != 1 {
		t.Errorf("an oversized packet shares a job (%d); it must travel alone", one)
	}
	// Declared recv budgets count against the compute bound.
	e0.mod.budget = 100_000
	hooked := e0.builder.RecvBatchLen(payloads(200, proofLen), e0.state())
	if want := int((host.MaxComputeUnits/2 - host.CUBaseInstruction) / (perPacket + 100_000)); hooked != want {
		t.Errorf("with 100k-unit recv hooks a job carries %d packets, want %d", hooked, want)
	}
}

// TestCommitRecvRefusesOverPackedBatch: the contract holds a staged buffer
// to the batch rule before it applies anything, so a relayer that packs
// more metered deliveries than one transaction can pay for loses the
// whole commit — never the events and acks of the packets ahead of the
// one that ran out.
func TestCommitRecvRefusesOverPackedBatch(t *testing.T) {
	const proofLen, budget = 200, 300_000
	perPacket := uint64(proofLen/64+1)*host.CUPerSHA256Block + host.CUPerTrieNode*uint64(1+proofLen/64) + budget
	fit := int((host.MaxComputeUnits - host.CUBaseInstruction) / perPacket)

	e := newRecvEnv(t)
	e.mod.budget = budget
	if n := e.builder.RecvBatchLen(payloads(fit+1, proofLen), e.state()); n >= fit {
		t.Fatalf("the relayer's rule packs %d packets, the transaction holds %d: nothing to over-pack", n, fit)
	}
	root := e.state().Store.Root()
	res, delivered := e.run(e.builder.RecvPacketTxs(payloads(fit+1, proofLen)...))
	if !errors.Is(res.Err, ErrRecvBatchTooLarge) {
		t.Fatalf("%d packets of %d units each: err = %v, want ErrRecvBatchTooLarge", fit+1, perPacket, res.Err)
	}
	if len(delivered) != 0 || len(e.mod.recvd) != 0 || e.state().Store.Root() != root {
		t.Error("a refused batch was partly applied")
	}

	ps := payloads(fit, proofLen)
	res, delivered = e.run(e.builder.RecvPacketTxs(ps...))
	if res.Err != nil || !sameSeqs(delivered, seqsOf(ps)) {
		t.Fatalf("%d packets fit the transaction: err = %v, events %v", fit, res.Err, delivered)
	}
	if res.Units > host.MaxComputeUnits {
		t.Errorf("commit used %d units of %d", res.Units, host.MaxComputeUnits)
	}
}

// TestCommitRecvBatchIndependentPackets: one packet's failure never costs
// another its delivery event or ack, and the transaction fails only when
// no packet was applied — which is the single-packet behaviour.
func TestCommitRecvBatchIndependentPackets(t *testing.T) {
	acked := func(e *recvEnv, p *RecvPayload) bool {
		ok, _ := e.state().Store.Has(ibc.AckPath(p.Packet.DestPort, p.Packet.DestChannel, p.Packet.Sequence))
		return ok
	}
	t.Run("middle packet already delivered", func(t *testing.T) {
		e := newRecvEnv(t)
		ps := payloads(3, 200)
		if res, _ := e.run(e.builder.RecvPacketTxs(ps[1])); res.Err != nil {
			t.Fatal(res.Err)
		}
		res, delivered := e.run(e.builder.RecvPacketTxs(ps...))
		if res.Err != nil {
			t.Fatalf("a redundant relay failed the batch: %v", res.Err)
		}
		if !sameSeqs(delivered, []uint64{1, 3}) {
			t.Errorf("delivery events %v, want [1 3]", delivered)
		}
		if len(e.mod.recvd) != 3 {
			t.Errorf("application saw %d deliveries, want each packet once", len(e.mod.recvd))
		}
		for _, p := range ps {
			if !acked(e, p) {
				t.Errorf("packet %d has no acknowledgement", p.Packet.Sequence)
			}
		}
	})
	t.Run("bad proof in the middle", func(t *testing.T) {
		e := newRecvEnv(t)
		ps := payloads(3, 200)
		ps[1].Proof = badProof
		res, delivered := e.run(e.builder.RecvPacketTxs(ps...))
		if res.Err != nil {
			t.Fatalf("one bad proof failed the batch: %v", res.Err)
		}
		if !sameSeqs(delivered, []uint64{1, 3}) || !sameSeqs(e.receipted(ps), []uint64{1, 3}) {
			t.Errorf("events %v, receipts %v; want [1 3] both", delivered, e.receipted(ps))
		}
	})
	t.Run("bad proof alone fails the transaction", func(t *testing.T) {
		e := newRecvEnv(t)
		p := payload(1, 0)
		p.Proof = badProof
		root := e.state().Store.Root()
		res, delivered := e.run(e.builder.RecvPacketTxs(p))
		if !errors.Is(res.Err, ibc.ErrProofVerification) {
			t.Fatalf("err = %v, want ErrProofVerification", res.Err)
		}
		if len(delivered) != 0 || e.state().Store.Root() != root {
			t.Error("a failed commit left events or state behind")
		}
	})
	t.Run("every packet already delivered fails the transaction", func(t *testing.T) {
		e := newRecvEnv(t)
		ps := payloads(2, 200)
		if res, _ := e.run(e.builder.RecvPacketTxs(ps...)); res.Err != nil {
			t.Fatal(res.Err)
		}
		if res, _ := e.run(e.builder.RecvPacketTxs(ps...)); !errors.Is(res.Err, ibc.ErrPacketAlreadyDelivered) {
			t.Fatalf("err = %v, want ErrPacketAlreadyDelivered", res.Err)
		}
	})
}

// TestCommitRecvMalformedBuffer: the whole buffer decodes before anything
// is applied, so a truncated or padded one changes nothing.
func TestCommitRecvMalformedBuffer(t *testing.T) {
	good := MarshalRecvPayload(payloads(3, 200)...)
	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"truncated", good[:len(good)-5], wire.ErrShort},
		{"trailing garbage", append(append([]byte(nil), good...), 0xde, 0xad, 0xbe, 0xef), wire.ErrShort},
		{"above the heap", bytes.Repeat(good, host.MaxHeapBytes/len(good)+1), host.ErrHeapExhausted},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := newRecvEnv(t)
			root := e.state().Store.Root()
			res, delivered := e.run(e.builder.ChunkedUpload(OpCommitRecvPacket, "", tc.data, nil, "recv-packet"))
			if !errors.Is(res.Err, tc.want) {
				t.Fatalf("err = %v, want %v", res.Err, tc.want)
			}
			if len(delivered) != 0 || len(e.mod.recvd) != 0 || e.state().Store.Root() != root {
				t.Error("a malformed buffer was partly applied")
			}
		})
	}
}

// TestRecvPacketTxsGolden pins the one-packet job to the bytes the
// per-packet flow built before packets could share a commit.
func TestRecvPacketTxsGolden(t *testing.T) {
	e := newRecvEnv(t)
	p := payload(7, 1500)
	p.Packet.TimeoutHeight = 42
	h := sha256.New()
	for _, tx := range e.builder.RecvPacketTxs(p) {
		fmt.Fprintf(h, "%s %d %d|", tx.Label, tx.Size(), len(tx.Instructions))
		h.Write(tx.Instructions[0].Data)
	}
	const golden = "232ddc82dca493c9f53eb58253da428d856b5071d03e467ab5912c015fc20c66" // three transactions
	if got := hex.EncodeToString(h.Sum(nil)); got != golden {
		t.Fatalf("one-packet recv transactions changed: digest %s, want %s", got, golden)
	}
}

// FuzzRecvBatchDecode: k payloads laid end to end decode to the same k;
// arbitrary bytes never panic, re-encode byte-identically when they do
// decode, and are never half-applied by a commit when they do not.
func FuzzRecvBatchDecode(f *testing.F) {
	good := MarshalRecvPayload(payloads(3, 200)...)
	f.Add([]byte{}, uint8(0))
	f.Add(MarshalRecvPayload(payload(1, 0)), uint8(1))
	f.Add(good, uint8(3))
	f.Add(good[:len(good)-5], uint8(16))
	f.Add(append(append([]byte(nil), good...), 0xde, 0xad, 0xbe, 0xef), uint8(40))
	f.Fuzz(func(t *testing.T, data []byte, k uint8) {
		ps := payloads(int(k%48)+1, int(k)*3)
		back, err := UnmarshalRecvPayloads(MarshalRecvPayload(ps...))
		if err != nil || len(back) != len(ps) {
			t.Fatalf("%d payloads decoded to %d (%v)", len(ps), len(back), err)
		}
		for i := range ps {
			if !bytes.Equal(MarshalRecvPayload(back[i]), MarshalRecvPayload(ps[i])) {
				t.Fatalf("payload %d of %d changed in the round trip", i, len(ps))
			}
		}

		decoded, err := UnmarshalRecvPayloads(data)
		if err == nil {
			if !bytes.Equal(MarshalRecvPayload(decoded...), data) {
				t.Fatal("decoded payloads do not re-encode to the input")
			}
			return
		}
		if len(data) == 0 || len(data) > 2*host.MaxHeapBytes {
			return // nothing to stage, or dozens of chunks only to trip the heap check
		}
		e := newRecvEnv(t)
		root := e.state().Store.Root()
		res, delivered := e.run(e.builder.ChunkedUpload(OpCommitRecvPacket, "", data, nil, "recv-packet"))
		if res.Err == nil || len(delivered) != 0 || len(e.mod.recvd) != 0 || e.state().Store.Root() != root {
			t.Fatalf("undecodable buffer (%v) was applied: err %v, %d events", err, res.Err, len(delivered))
		}
	})
}
