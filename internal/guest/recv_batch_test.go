package guest

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"runtime"
	"testing"

	"repro/internal/cryptoutil"
	"repro/internal/host"
	"repro/internal/ibc"
	"repro/internal/wire"
)

// badProof is the one proof recvEnv's client rejects.
var badProof = []byte("bad-proof")

// pickyClient accepts every proof but badProof — or, given the
// counterparty's root, exactly the proofs that verify against it.
type pickyClient struct {
	permissiveClient
	root *cryptoutil.Hash
}

func (c *pickyClient) VerifyMembership(_ ibc.Height, path string, value, proof []byte) error {
	if c.root != nil {
		return ibc.VerifyStoredMembership(*c.root, path, value, proof)
	}
	if bytes.Equal(proof, badProof) {
		return ibc.ErrProofVerification
	}
	return nil
}

// hookedModule is a recording application whose packet callbacks charge
// the transaction's meter: it declares budget units per run of each
// (ibc.HookBudgeter) and burns exactly that.
type hookedModule struct {
	recordingModule
	st     *State
	budget uint64
}

func (m *hookedModule) HookBudget(ibc.Hook, ibc.PortID, ibc.ChannelID) uint64 { return m.budget }

func (m *hookedModule) OnRecvPacket(p ibc.Packet) ([]byte, error) {
	if err := m.st.Meter().Consume(m.budget); err != nil {
		return nil, err
	}
	return m.recordingModule.OnRecvPacket(p)
}

func (m *hookedModule) OnAcknowledgementPacket(p ibc.Packet, ack []byte) error {
	if err := m.st.Meter().Consume(m.budget); err != nil {
		return err
	}
	return m.recordingModule.OnAcknowledgementPacket(p, ack)
}

func (m *hookedModule) OnTimeoutPacket(p ibc.Packet) error {
	if err := m.st.Meter().Consume(m.budget); err != nil {
		return err
	}
	return m.recordingModule.OnTimeoutPacket(p)
}

// recvEnv is a contract with an open "transfer" channel behind a
// recording application, and a funded relayer's builder.
type recvEnv struct {
	*env
	mod     *hookedModule
	client  *pickyClient
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
	e.client = &pickyClient{}
	if err := st.Handler.CreateClient("test-client", e.client); err != nil {
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

// decode is the commit's decode of a staged buffer on a heap of limit
// bytes: the buffer is charged first, then what the proofs grow by.
func decode(data []byte, limit int) ([]*RecvPayload, error) {
	heap := host.NewHeapMeter(limit)
	if err := heap.Alloc(len(data)); err != nil {
		return nil, err
	}
	return UnmarshalRecvPayloads(data, heap)
}

// expandedSize is Σ wireSize: the bytes the batch rule and the heap read.
func expandedSize(ps []*RecvPayload) int {
	size := 0
	for _, p := range ps {
		size += p.wireSize()
	}
	return size
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
			if size := expandedSize(ps); size > host.MaxHeapBytes {
				t.Fatalf("job decodes to %d bytes, above the %d-byte heap", size, host.MaxHeapBytes)
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
	// One more packet than a full job no longer fits one of the limits:
	// the rule is about the payloads with their proofs whole, whatever
	// they stage in.
	over := payloads(full+1, proofLen)
	if size, units := expandedSize(over), host.CUBaseInstruction+uint64(full+1)*perPacket; size <= host.MaxHeapBytes && units <= host.MaxComputeUnits/2 {
		t.Errorf("RecvBatchLen stops at %d packets, but %d still fit (%d bytes, %d units)", full, full+1, size, units)
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

// stageLater appends p to buf the way a payload after the first is staged:
// head only, ahead of it the length n of the tail it claims to share with
// the proof before it.
func stageLater[P packetPayload](buf []byte, p P, n int, head []byte) []byte {
	w := wire.NewWriter()
	p.writeFields(w)
	w.U16(uint16(n))
	w.Bytes32(head)
	return append(append([]byte(nil), buf...), w.Bytes()...)
}

// tailBomb is a buffer that fits the heap as staged and would not as
// decoded: one payload with a 24 kB proof, then a few bytes per payload
// each claiming all of it as its tail.
func tailBomb(n int) []byte {
	buf := MarshalRecvPayload(payload(1, 24_000))
	for i := 1; i < n; i++ {
		buf = stageLater(buf, payload(uint64(i+1), 0), 24_000, nil)
	}
	return buf
}

// TestCommitRecvMalformedBuffer: the whole buffer decodes before anything
// is applied, so one that is truncated, padded, claims a tail its
// predecessor does not have, or would outgrow the heap once its tails are
// put back changes nothing.
func TestCommitRecvMalformedBuffer(t *testing.T) {
	good := MarshalRecvPayload(payloads(3, 200)...)
	first := MarshalRecvPayload(payload(1, 200))
	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"truncated", good[:len(good)-5], wire.ErrShort},
		{"trailing garbage", append(append([]byte(nil), good...), 0xde, 0xad, 0xbe, 0xef), wire.ErrShort},
		{"above the heap", bytes.Repeat(first, host.MaxHeapBytes/len(first)+1), host.ErrHeapExhausted},
		{"tail longer than the proof before it", stageLater(first, payload(2, 0), 201, nil), ErrRecvSharedTail},
		{"truncated tail length", func() []byte {
			whole := stageLater(first, payload(2, 0), 200, nil)
			return whole[:len(whole)-4-1] // cut inside the u16, ahead of the head's length
		}(), wire.ErrShort},
		{"tails that outgrow the heap", tailBomb(8), host.ErrHeapExhausted},
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

	// The bomb is refused before its tails are allocated, not after: 80
	// payloads claiming 24 kB each would be 1.9 MB.
	bomb := tailBomb(80)
	if len(bomb) > host.MaxHeapBytes {
		t.Fatalf("the bomb stages %d bytes; it must fit the heap as staged", len(bomb))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := decode(bomb, host.MaxHeapBytes)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, host.ErrHeapExhausted) {
		t.Fatalf("err = %v, want ErrHeapExhausted", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 4*host.MaxHeapBytes {
		t.Errorf("refusing the bomb allocated %d bytes on a %d-byte heap", got, host.MaxHeapBytes)
	}
}

// TestRecvPayloadRoundTrip: whatever two neighbouring proofs share, the
// decode returns the payloads that were encoded, each proof whole.
func TestRecvPayloadRoundTrip(t *testing.T) {
	withProofs := func(proofs ...[]byte) []*RecvPayload {
		ps := payloads(len(proofs), 0)
		for i, proof := range proofs {
			ps[i].Proof = proof
		}
		return ps
	}
	fill := func(b byte, n int) []byte { return bytes.Repeat([]byte{b}, n) }
	long := append(fill(1, 300), fill(2, 100)...)
	huge := fill(7, 70_000)
	cases := []struct {
		name string
		ps   []*RecvPayload
		// staged is the buffer's size less the packets, heights and
		// length fields: the proof bytes that were written.
		staged int
	}{
		{"one payload", withProofs(long), 400},
		{"identical proofs", withProofs(long, long, long), 400},
		{"disjoint proofs", withProofs(fill(1, 200), fill(2, 200), fill(3, 200)), 600},
		{"shared upper path", withProofs(long, append(fill(9, 50), long[50:]...), append(fill(8, 20), long[20:]...)), 400 + 50 + 50},
		{"empty proof in the middle", withProofs(long, nil, long), 800},
		{"shorter than its predecessor", withProofs(long, long[300:], long), 400 + 0 + 300},
		{"tail above 65535 bytes", withProofs(huge, huge), 70_000 + 70_000 - math.MaxUint16},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			data := MarshalRecvPayload(tc.ps...)
			overhead := expandedSize(tc.ps) + 2*(len(tc.ps)-1)
			for _, p := range tc.ps {
				overhead -= len(p.Proof)
			}
			if got := len(data) - overhead; got != tc.staged {
				t.Errorf("staged %d proof bytes, want %d", got, tc.staged)
			}
			back, err := decode(data, 1<<20)
			if err != nil || len(back) != len(tc.ps) {
				t.Fatalf("%d payloads decoded to %d (%v)", len(tc.ps), len(back), err)
			}
			for i, p := range tc.ps {
				if !bytes.Equal(back[i].Proof, p.Proof) || !bytes.Equal(MarshalRecvPayload(back[i]), MarshalRecvPayload(p)) {
					t.Errorf("payload %d changed in the round trip", i)
				}
			}
		})
	}
}

// provenPayloads is n packets of consecutive sequences committed on a
// counterparty whose store also holds other channels' state, each with its
// real membership proof at the returned root.
func provenPayloads(t *testing.T, n int) ([]*RecvPayload, cryptoutil.Hash) {
	t.Helper()
	cp := ibc.NewStore()
	for i := 0; i < 2000; i++ {
		path := ibc.CommitmentPath("transfer", ibc.ChannelID(fmt.Sprintf("channel-%d", 100+i%7)), uint64(i))
		if err := cp.Set(path, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	ps := payloads(n, 0)
	path := func(p *ibc.Packet) string { return ibc.CommitmentPath(p.SourcePort, p.SourceChannel, p.Sequence) }
	for _, p := range ps {
		if err := cp.Set(path(p.Packet), p.Packet.CommitmentBytes()); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range ps {
		_, proof, err := cp.ProveMembership(path(p.Packet))
		if err != nil {
			t.Fatal(err)
		}
		p.Proof = proof
	}
	return ps, cp.Root()
}

// TestRecvBatchSharesProofTails: consecutive sequences are neighbouring
// leaves, so a job stages their shared upper path once — fewer bytes, fewer
// chunk transactions — while the commit verifies every packet's own whole
// proof and charges what it would have charged for the payloads staged
// whole.
func TestRecvBatchSharesProofTails(t *testing.T) {
	const n = 32
	// whole is the encoding with nothing shared: every proof in full.
	whole := func(ps []*RecvPayload) []byte {
		buf := MarshalRecvPayload(ps[0])
		for _, p := range ps[1:] {
			buf = stageLater(buf, p, 0, p.Proof)
		}
		return buf
	}
	ps, root := provenPayloads(t, n)

	e := newRecvEnv(t)
	e.client.root = &root
	if fit := e.builder.RecvBatchLen(ps, e.state()); fit != n {
		t.Fatalf("%d of %d packets fit one job", fit, n)
	}
	txs := e.builder.RecvPacketTxs(ps...)
	if staged, size := len(MarshalRecvPayload(ps...)), expandedSize(ps); 4*staged > 3*size {
		t.Errorf("%d adjacent packets stage %d bytes of %d: want at most three quarters", n, staged, size)
	}
	ref := newRecvEnv(t)
	ref.client.root = &root
	wholeTxs := ref.builder.ChunkedUpload(OpCommitRecvPacket, "", whole(ps), nil, "recv-packet")
	if chunks, was := len(txs)-1, len(wholeTxs)-1; 3*chunks > 2*was {
		t.Errorf("%d chunk transactions where whole proofs need %d: want at most two thirds", chunks, was)
	}
	res, delivered := e.run(txs)
	if res.Err != nil || !sameSeqs(delivered, seqsOf(ps)) || len(e.receipted(ps)) != n {
		t.Fatalf("err = %v, events %v, %d receipts; want all %d delivered", res.Err, delivered, len(e.receipted(ps)), n)
	}
	// The commit is the one whole proofs get: same events, same compute.
	wholeRes, wholeDelivered := ref.run(wholeTxs)
	if wholeRes.Err != nil || !sameSeqs(wholeDelivered, delivered) || wholeRes.Units != res.Units || ref.state().Store.Root() != e.state().Store.Root() {
		t.Errorf("whole proofs: err = %v, %d events, %d units; shared tails: %d events, %d units",
			wholeRes.Err, len(wholeDelivered), wholeRes.Units, len(delivered), res.Units)
	}

	t.Run("bad proof in the middle", func(t *testing.T) {
		e := newRecvEnv(t)
		e.client.root = &root
		ps, _ := provenPayloads(t, n)
		// Corrupt the deepest item only: the successor still shares the
		// bad proof's upper path and is rebuilt from it.
		bad := n / 2
		ps[bad].Proof = append([]byte(nil), ps[bad].Proof...)
		ps[bad].Proof[2] ^= 0xff
		if shared := sharedTail(ps[bad].Proof, ps[bad+1].Proof); shared < 64 {
			t.Fatalf("the successor shares %d bytes with the bad proof; the test needs it to lean on it", shared)
		}
		want := append(seqsOf(ps[:bad]), seqsOf(ps[bad+1:])...)
		res, delivered := e.run(e.builder.RecvPacketTxs(ps...))
		if res.Err != nil {
			t.Fatalf("one bad proof failed the batch: %v", res.Err)
		}
		if !sameSeqs(delivered, want) || !sameSeqs(e.receipted(ps), want) {
			t.Errorf("events %v, receipts %v; want every packet but %d", delivered, e.receipted(ps), ps[bad].Packet.Sequence)
		}
	})
}

// TestRecvBatchDecodeAllocations: a proof rebuilt from a shared tail costs
// the one allocation a proof staged whole costs, so k payloads decode in
// as many allocations either way.
func TestRecvBatchDecodeAllocations(t *testing.T) {
	const k = 8
	ps := payloads(k, 200)
	for i, p := range ps {
		p.Proof[i] = byte(i) // each shares all but its first i+1 bytes with the one before
	}
	whole := MarshalRecvPayload(ps[0])
	for _, p := range ps[1:] {
		whole = stageLater(whole, p, 0, p.Proof)
	}
	allocs := func(buf []byte) float64 {
		return testing.AllocsPerRun(100, func() {
			if back, err := decode(buf, 1<<20); err != nil || len(back) != k {
				t.Fatalf("%d payloads decoded to %d: %v", k, len(back), err)
			}
		})
	}
	if shared, want := allocs(MarshalRecvPayload(ps...)), allocs(whole); shared > want {
		t.Errorf("%d shared-tail payloads decode in %v allocations, staged whole in %v", k, shared, want)
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

// FuzzRecvBatchDecode: k payloads staged together decode to the same k;
// arbitrary bytes never panic, never decode to more than the heap holds,
// survive a re-encode when they do decode (to no more bytes: the encoder
// shares the longest tail), and are never half-applied by a commit when
// they do not.
func FuzzRecvBatchDecode(f *testing.F) {
	good := MarshalRecvPayload(payloads(3, 200)...)
	first := MarshalRecvPayload(payload(1, 200))
	f.Add([]byte{}, uint8(0))
	f.Add(MarshalRecvPayload(payload(1, 0)), uint8(1))
	f.Add(good, uint8(3))
	f.Add(good[:len(good)-5], uint8(16))
	f.Add(append(append([]byte(nil), good...), 0xde, 0xad, 0xbe, 0xef), uint8(40))
	f.Add(stageLater(first, payload(2, 0), 120, []byte("head")), uint8(5))
	f.Add(stageLater(first, payload(2, 0), 0, bytes.Repeat([]byte{0xab}, 200)), uint8(7))
	f.Add(stageLater(first, payload(2, 0), 201, nil), uint8(9))
	f.Add(tailBomb(4), uint8(11))
	f.Fuzz(func(t *testing.T, data []byte, k uint8) {
		ps := payloads(int(k%48)+1, int(k)*3)
		for i, p := range ps {
			if len(p.Proof) > 0 && k%2 == 1 {
				p.Proof[i%len(p.Proof)] = byte(i) // neighbours share a tail, not all
			}
		}
		back, err := decode(MarshalRecvPayload(ps...), 1<<20)
		if err != nil || len(back) != len(ps) {
			t.Fatalf("%d payloads decoded to %d (%v)", len(ps), len(back), err)
		}
		for i := range ps {
			if !bytes.Equal(MarshalRecvPayload(back[i]), MarshalRecvPayload(ps[i])) {
				t.Fatalf("payload %d of %d changed in the round trip", i, len(ps))
			}
		}

		decoded, err := decode(data, host.MaxHeapBytes)
		if err == nil {
			if size := expandedSize(decoded); size > host.MaxHeapBytes {
				t.Fatalf("%d staged bytes decoded to %d, above the %d-byte heap", len(data), size, host.MaxHeapBytes)
			}
			again := MarshalRecvPayload(decoded...)
			if len(again) > len(data) {
				t.Fatalf("%d staged bytes re-encode to %d", len(data), len(again))
			}
			back, err := decode(again, host.MaxHeapBytes)
			if err != nil || len(back) != len(decoded) {
				t.Fatalf("re-encoded payloads decode to %d of %d (%v)", len(back), len(decoded), err)
			}
			for i := range decoded {
				if !bytes.Equal(MarshalRecvPayload(back[i]), MarshalRecvPayload(decoded[i])) {
					t.Fatalf("payload %d of %d changed in the re-encode", i, len(decoded))
				}
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
