package ibc

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/cryptoutil"
)

// mockChain is a minimal chain environment: a provable store, a handler,
// and a SelfInfo with controllable height/time. Two mockChains are wired
// together with mockClients that verify proofs against each other's
// current snapshots.
type mockChain struct {
	name    string
	store   *Store
	handler *Handler
	height  Height
	now     time.Time

	// roots[height] records the store root at each committed height.
	roots map[Height]cryptoutil.Hash
	times map[Height]time.Time
	snaps map[Height]*ReadOnlyStore
}

func newMockChain(name string, opts ...HandlerOption) *mockChain {
	c := &mockChain{
		name:   name,
		store:  NewStore(),
		height: 1,
		now:    time.Unix(1_700_000_000, 0).UTC(),
		roots:  map[Height]cryptoutil.Hash{},
		times:  map[Height]time.Time{},
		snaps:  map[Height]*ReadOnlyStore{},
	}
	c.handler = NewHandler(c.store, c, opts...)
	c.commit()
	return c
}

func (c *mockChain) CurrentHeight() Height  { return c.height }
func (c *mockChain) CurrentTime() time.Time { return c.now }
func (c *mockChain) ValidateSelfClient(clientState []byte) error {
	if string(clientState) != "client-for-"+c.name {
		return fmt.Errorf("bad self client state %q", clientState)
	}
	return nil
}

// commit snapshots the store at the current height and advances.
func (c *mockChain) commit() {
	c.roots[c.height] = c.store.Root()
	c.times[c.height] = c.now
	v, err := c.store.CommitAt(uint64(c.height))
	if err != nil {
		panic(err)
	}
	snap, err := c.store.At(v)
	if err != nil {
		panic(err)
	}
	c.snaps[c.height] = snap
	c.height++
	c.now = c.now.Add(5 * time.Second)
}

// mockClient lets one mockChain verify the other's proofs.
type mockClient struct {
	target *mockChain
}

func (m *mockClient) LatestHeight() Height { return m.target.height - 1 }
func (m *mockClient) StateBytes() []byte   { return []byte("client-for-" + m.target.name) }
func (m *mockClient) Update(_ []byte, _ time.Time) error {
	return nil // mock chains are always in sync
}
func (m *mockClient) VerifyMembership(h Height, path string, value []byte, proof []byte) error {
	root, ok := m.target.roots[h]
	if !ok {
		return fmt.Errorf("mock: no consensus at %d", h)
	}
	return VerifyStoredMembership(root, path, value, proof)
}
func (m *mockClient) VerifyNonMembership(h Height, path string, proof []byte) error {
	root, ok := m.target.roots[h]
	if !ok {
		return fmt.Errorf("mock: no consensus at %d", h)
	}
	return VerifyStoredNonMembership(root, path, proof)
}
func (m *mockClient) ConsensusTime(h Height) (time.Time, error) {
	t, ok := m.target.times[h]
	if !ok {
		return time.Time{}, fmt.Errorf("mock: no consensus at %d", h)
	}
	return t, nil
}

// echoModule acks every packet and records callbacks.
type echoModule struct {
	recvd      []Packet
	acks       [][]byte
	timeouts   []Packet
	rejectNext bool
}

func (m *echoModule) OnChanOpen(PortID, ChannelID, string) error { return nil }
func (m *echoModule) OnRecvPacket(p Packet) ([]byte, error) {
	if m.rejectNext {
		m.rejectNext = false
		return nil, errors.New("application says no")
	}
	m.recvd = append(m.recvd, p)
	return []byte(`{"result":"ok"}`), nil
}
func (m *echoModule) OnAcknowledgementPacket(p Packet, ack []byte) error {
	m.acks = append(m.acks, ack)
	return nil
}
func (m *echoModule) OnTimeoutPacket(p Packet) error {
	m.timeouts = append(m.timeouts, p)
	return nil
}

// pair wires two mock chains with open connection and channel.
type pair struct {
	a, b         *mockChain
	modA, modB   *echoModule
	chanA, chanB ChannelID
	connA, connB ConnectionID
}

func newPair(t testing.TB, orderings ...Ordering) *pair {
	t.Helper()
	ordering := Unordered
	if len(orderings) > 0 {
		ordering = orderings[0]
	}
	p := &pair{
		a: newMockChain("A", WithSealedReceipts()),
		b: newMockChain("B"),
	}
	p.modA = &echoModule{}
	p.modB = &echoModule{}
	must(t, p.a.handler.BindPort("transfer", p.modA))
	must(t, p.b.handler.BindPort("transfer", p.modB))
	must(t, p.a.handler.CreateClient("client-b", &mockClient{target: p.b}))
	must(t, p.b.handler.CreateClient("client-a", &mockClient{target: p.a}))

	// Connection handshake.
	connA, err := p.a.handler.ConnOpenInit("client-b", "client-a")
	must(t, err)
	p.a.commit()
	_, proofInit, err := p.a.snaps[p.a.height-1].ProveMembership(ConnectionPath(connA))
	must(t, err)
	connB, err := p.b.handler.ConnOpenTry("client-a",
		Counterparty{ClientID: "client-b", ConnectionID: connA},
		[]byte("client-for-B"), proofInit, p.a.height-1)
	must(t, err)
	p.b.commit()
	_, proofTry, err := p.b.snaps[p.b.height-1].ProveMembership(ConnectionPath(connB))
	must(t, err)
	must(t, p.a.handler.ConnOpenAck(connA, connB, []byte("client-for-A"), proofTry, p.b.height-1))
	p.a.commit()
	_, proofAck, err := p.a.snaps[p.a.height-1].ProveMembership(ConnectionPath(connA))
	must(t, err)
	must(t, p.b.handler.ConnOpenConfirm(connB, proofAck, p.a.height-1))
	p.connA, p.connB = connA, connB

	// Channel handshake.
	chanA, err := p.a.handler.ChanOpenInit("transfer", connA, "transfer", ordering, "v1")
	must(t, err)
	p.a.commit()
	_, proofChanInit, err := p.a.snaps[p.a.height-1].ProveMembership(ChannelPath("transfer", chanA))
	must(t, err)
	chanB, err := p.b.handler.ChanOpenTry("transfer", connB,
		ChannelCounterparty{PortID: "transfer", ChannelID: chanA},
		ordering, "v1", proofChanInit, p.a.height-1)
	must(t, err)
	p.b.commit()
	_, proofChanTry, err := p.b.snaps[p.b.height-1].ProveMembership(ChannelPath("transfer", chanB))
	must(t, err)
	must(t, p.a.handler.ChanOpenAck("transfer", chanA, chanB, proofChanTry, p.b.height-1))
	p.a.commit()
	_, proofChanAck, err := p.a.snaps[p.a.height-1].ProveMembership(ChannelPath("transfer", chanA))
	must(t, err)
	must(t, p.b.handler.ChanOpenConfirm("transfer", chanB, proofChanAck, p.a.height-1))
	p.chanA, p.chanB = chanA, chanB
	return p
}

// send sends a packet from A and returns it with its commitment proof.
func (p *pair) send(t *testing.T, data []byte, timeoutTs time.Time) (*Packet, []byte, Height) {
	t.Helper()
	pkt, err := p.a.handler.SendPacket("transfer", p.chanA, data, 0, timeoutTs)
	must(t, err)
	p.a.commit()
	h := p.a.height - 1
	_, proof, err := p.a.snaps[h].ProveMembership(CommitmentPath(pkt.SourcePort, pkt.SourceChannel, pkt.Sequence))
	must(t, err)
	return pkt, proof, h
}

func TestHandshakeOpensBothEnds(t *testing.T) {
	p := newPair(t)
	connA, err := p.a.handler.Connection(p.connA)
	must(t, err)
	connB, err := p.b.handler.Connection(p.connB)
	must(t, err)
	if connA.State != StateOpen || connB.State != StateOpen {
		t.Fatalf("connection states: %v / %v", connA.State, connB.State)
	}
	chA, err := p.a.handler.Channel("transfer", p.chanA)
	must(t, err)
	chB, err := p.b.handler.Channel("transfer", p.chanB)
	must(t, err)
	if chA.State != StateOpen || chB.State != StateOpen {
		t.Fatalf("channel states: %v / %v", chA.State, chB.State)
	}
	if chA.Counterparty.ChannelID != p.chanB || chB.Counterparty.ChannelID != p.chanA {
		t.Fatal("channel counterparties not linked")
	}
}

func TestHandshakeRejectsBadSelfClient(t *testing.T) {
	a := newMockChain("A")
	b := newMockChain("B")
	must(t, a.handler.CreateClient("client-b", &mockClient{target: b}))
	must(t, b.handler.CreateClient("client-a", &mockClient{target: a}))
	connA, err := a.handler.ConnOpenInit("client-b", "client-a")
	must(t, err)
	a.commit()
	_, proofInit, err := a.snaps[a.height-1].ProveMembership(ConnectionPath(connA))
	must(t, err)
	// Wrong self-client state: the introspection check must catch it.
	_, err = b.handler.ConnOpenTry("client-a",
		Counterparty{ClientID: "client-b", ConnectionID: connA},
		[]byte("client-for-SOMEONE-ELSE"), proofInit, a.height-1)
	if err == nil {
		t.Fatal("ConnOpenTry accepted an invalid self-client state")
	}
}

func TestHandshakeRejectsForgedProof(t *testing.T) {
	a := newMockChain("A")
	b := newMockChain("B")
	must(t, a.handler.CreateClient("client-b", &mockClient{target: b}))
	must(t, b.handler.CreateClient("client-a", &mockClient{target: a}))
	connA, err := a.handler.ConnOpenInit("client-b", "client-a")
	must(t, err)
	a.commit()
	// Proof for a DIFFERENT path must not verify the INIT end.
	_, wrongProof, err := a.snaps[a.height-1].ProveMembership(NextSequenceSendPath("transfer", "nope"))
	if err != nil {
		// Path absent: use a non-membership proof as garbage instead.
		wrongProof, err = a.snaps[a.height-1].ProveNonMembership(ConnectionPath("connection-99"))
		must(t, err)
	}
	_, err = b.handler.ConnOpenTry("client-a",
		Counterparty{ClientID: "client-b", ConnectionID: connA},
		[]byte("client-for-B"), wrongProof, a.height-1)
	if !errors.Is(err, ErrProofVerification) {
		t.Fatalf("err = %v, want ErrProofVerification", err)
	}
}

func TestPacketRoundTrip(t *testing.T) {
	p := newPair(t)
	pkt, proof, h := p.send(t, []byte("hello"), time.Time{})

	ack, err := p.b.handler.RecvPacket(pkt, proof, h)
	must(t, err)
	if len(p.modB.recvd) != 1 || string(p.modB.recvd[0].Data) != "hello" {
		t.Fatalf("module did not receive packet: %+v", p.modB.recvd)
	}
	p.b.commit()

	// Ack back to A.
	_, ackProof, err := p.b.snaps[p.b.height-1].ProveMembership(AckPath(pkt.DestPort, pkt.DestChannel, pkt.Sequence))
	must(t, err)
	must(t, p.a.handler.AcknowledgePacket(pkt, ack, ackProof, p.b.height-1))
	if len(p.modA.acks) != 1 {
		t.Fatal("sender module did not get the ack")
	}
	if p.a.handler.HasCommitment(pkt) {
		t.Fatal("commitment not cleared after ack")
	}
}

func TestRecvPacketDuplicateRejected(t *testing.T) {
	p := newPair(t)
	pkt, proof, h := p.send(t, []byte("dup"), time.Time{})
	_, err := p.b.handler.RecvPacket(pkt, proof, h)
	must(t, err)
	_, err = p.b.handler.RecvPacket(pkt, proof, h)
	if !errors.Is(err, ErrPacketAlreadyDelivered) {
		t.Fatalf("second delivery = %v, want ErrPacketAlreadyDelivered", err)
	}
}

func TestRecvPacketSealedReceiptDuplicateRejected(t *testing.T) {
	// Chain A seals receipts (the guest behaviour); double delivery on A
	// must hit the sealed-trie guard.
	p := newPair(t)
	pkt, err := p.b.handler.SendPacket("transfer", p.chanB, []byte("to-a"), 0, time.Time{})
	must(t, err)
	p.b.commit()
	h := p.b.height - 1
	_, proof, err := p.b.snaps[h].ProveMembership(CommitmentPath(pkt.SourcePort, pkt.SourceChannel, pkt.Sequence))
	must(t, err)
	_, err = p.a.handler.RecvPacket(pkt, proof, h)
	must(t, err)
	// The receipt must be sealed now.
	if !p.a.store.IsSealed(ReceiptPath(pkt.DestPort, pkt.DestChannel, pkt.Sequence)) {
		t.Fatal("receipt not sealed on the sealing chain")
	}
	_, err = p.a.handler.RecvPacket(pkt, proof, h)
	if !errors.Is(err, ErrPacketAlreadyDelivered) {
		t.Fatalf("second delivery = %v, want ErrPacketAlreadyDelivered", err)
	}
}

func TestRecvPacketForgedProofRejected(t *testing.T) {
	p := newPair(t)
	pkt, proof, h := p.send(t, []byte("forge"), time.Time{})
	// Tamper with the packet: same proof must fail.
	bad := *pkt
	bad.Data = []byte("forged-data")
	if _, err := p.b.handler.RecvPacket(&bad, proof, h); !errors.Is(err, ErrProofVerification) {
		t.Fatalf("forged packet = %v, want ErrProofVerification", err)
	}
}

func TestRecvPacketExpiredRejected(t *testing.T) {
	p := newPair(t)
	// Timeout already passed on B.
	pkt, proof, h := p.send(t, []byte("late"), p.b.now.Add(-time.Second))
	if _, err := p.b.handler.RecvPacket(pkt, proof, h); !errors.Is(err, ErrPacketExpired) {
		t.Fatalf("expired packet = %v, want ErrPacketExpired", err)
	}
}

func TestTimeoutPacketUnordered(t *testing.T) {
	p := newPair(t)
	timeout := p.b.now.Add(3 * time.Second)
	pkt, _, _ := p.send(t, []byte("never"), timeout)

	// B's time passes the timeout without delivery (the consensus time
	// recorded at a height is the time *before* the post-commit advance,
	// so two commits are needed to get a consensus state past +3s).
	p.b.commit()
	p.b.commit()
	h := p.b.height - 1
	proof, err := p.b.snaps[h].ProveNonMembership(ReceiptPath(pkt.DestPort, pkt.DestChannel, pkt.Sequence))
	must(t, err)
	must(t, p.a.handler.TimeoutPacket(pkt, proof, h))
	if len(p.modA.timeouts) != 1 {
		t.Fatal("timeout callback not delivered")
	}
	if p.a.handler.HasCommitment(pkt) {
		t.Fatal("commitment not cleared after timeout")
	}
	// A second timeout claim must fail.
	if err := p.a.handler.TimeoutPacket(pkt, proof, h); !errors.Is(err, ErrPacketAlreadyDelivered) {
		t.Fatalf("double timeout = %v, want ErrPacketAlreadyDelivered", err)
	}
}

func TestTimeoutPacketNotExpiredRejected(t *testing.T) {
	p := newPair(t)
	timeout := p.b.now.Add(time.Hour)
	pkt, _, _ := p.send(t, []byte("early"), timeout)
	p.b.commit()
	h := p.b.height - 1
	proof, err := p.b.snaps[h].ProveNonMembership(ReceiptPath(pkt.DestPort, pkt.DestChannel, pkt.Sequence))
	must(t, err)
	if err := p.a.handler.TimeoutPacket(pkt, proof, h); !errors.Is(err, ErrPacketNotExpired) {
		t.Fatalf("premature timeout = %v, want ErrPacketNotExpired", err)
	}
}

func TestTimeoutDeliveredPacketRejected(t *testing.T) {
	p := newPair(t)
	timeout := p.b.now.Add(3 * time.Second)
	pkt, proof, h := p.send(t, []byte("delivered"), timeout)
	// Deliver before expiry.
	_, err := p.b.handler.RecvPacket(pkt, proof, h)
	must(t, err)
	p.b.commit()
	hb := p.b.height - 1
	// Receipt exists, so a non-membership proof cannot be generated; a
	// malicious relayer would need to forge one.
	if _, err := p.b.snaps[hb].ProveNonMembership(ReceiptPath(pkt.DestPort, pkt.DestChannel, pkt.Sequence)); err == nil {
		t.Fatal("generated absence proof for a delivered packet")
	}
}

func TestOrderedChannelSequenceEnforced(t *testing.T) {
	p := newPair(t, Ordered)
	pkt1, proof1, h1 := p.send(t, []byte("one"), time.Time{})
	pkt2, proof2, h2 := p.send(t, []byte("two"), time.Time{})

	// Out of order: packet 2 first must fail.
	if _, err := p.b.handler.RecvPacket(pkt2, proof2, h2); !errors.Is(err, ErrSequenceMismatch) {
		t.Fatalf("out-of-order recv = %v, want ErrSequenceMismatch", err)
	}
	_, err := p.b.handler.RecvPacket(pkt1, proof1, h1)
	must(t, err)
	// An ordered channel writes no receipt: delivery shows in the sequence.
	if !p.b.handler.PacketDelivered(pkt1) || p.b.handler.PacketDelivered(pkt2) {
		t.Fatalf("PacketDelivered = %v, %v after packet 1 alone; want true, false",
			p.b.handler.PacketDelivered(pkt1), p.b.handler.PacketDelivered(pkt2))
	}
	_, err = p.b.handler.RecvPacket(pkt2, proof2, h2)
	must(t, err)
	if !p.b.handler.PacketDelivered(pkt2) {
		t.Fatal("PacketDelivered(2) = false after delivery")
	}
	// Replaying packet 1 must fail as a duplicate.
	if _, err := p.b.handler.RecvPacket(pkt1, proof1, h1); !errors.Is(err, ErrPacketAlreadyDelivered) {
		t.Fatalf("replay = %v, want ErrPacketAlreadyDelivered", err)
	}
}

func TestSequencesIncrease(t *testing.T) {
	p := newPair(t)
	for want := uint64(1); want <= 5; want++ {
		pkt, err := p.a.handler.SendPacket("transfer", p.chanA, []byte{byte(want)}, 0, time.Time{})
		must(t, err)
		if pkt.Sequence != want {
			t.Fatalf("sequence = %d, want %d", pkt.Sequence, want)
		}
	}
}

func TestApplicationRejectionAbortsRecv(t *testing.T) {
	p := newPair(t)
	pkt, proof, h := p.send(t, []byte("rejected"), time.Time{})
	p.modB.rejectNext = true
	if _, err := p.b.handler.RecvPacket(pkt, proof, h); err == nil {
		t.Fatal("recv succeeded despite application rejection")
	}
}

func TestSendOnClosedOrMissingChannel(t *testing.T) {
	p := newPair(t)
	if _, err := p.a.handler.SendPacket("transfer", "channel-99", []byte("x"), 0, time.Time{}); !errors.Is(err, ErrChannelNotFound) {
		t.Fatalf("missing channel = %v, want ErrChannelNotFound", err)
	}
	if _, err := p.a.handler.SendPacket("nope", p.chanA, []byte("x"), 0, time.Time{}); !errors.Is(err, ErrChannelNotFound) {
		t.Fatalf("missing port = %v, want ErrChannelNotFound", err)
	}
}

func TestAckCommitmentMismatchRejected(t *testing.T) {
	p := newPair(t)
	pkt, proof, h := p.send(t, []byte("ackme"), time.Time{})
	ack, err := p.b.handler.RecvPacket(pkt, proof, h)
	must(t, err)
	p.b.commit()
	_, ackProof, err := p.b.snaps[p.b.height-1].ProveMembership(AckPath(pkt.DestPort, pkt.DestChannel, pkt.Sequence))
	must(t, err)
	// Wrong ack bytes cannot verify against the committed ack.
	if err := p.a.handler.AcknowledgePacket(pkt, []byte("forged-ack"), ackProof, p.b.height-1); !errors.Is(err, ErrProofVerification) {
		t.Fatalf("forged ack = %v, want ErrProofVerification", err)
	}
	// A packet that differs from the one committed settles nothing, by ack
	// or by timeout.
	other := *pkt
	other.Data = []byte("not what was sent")
	if err := p.a.handler.AcknowledgePacket(&other, ack, ackProof, p.b.height-1); !errors.Is(err, ErrInvalidPacket) {
		t.Fatalf("ack of a different packet = %v, want ErrInvalidPacket", err)
	}
	if err := p.a.handler.TimeoutPacket(&other, ackProof, p.b.height-1); !errors.Is(err, ErrInvalidPacket) {
		t.Fatalf("timeout of a different packet = %v, want ErrInvalidPacket", err)
	}
	// Once the real ack cleared the commitment, a second one finds nothing.
	must(t, p.a.handler.AcknowledgePacket(pkt, ack, ackProof, p.b.height-1))
	if err := p.a.handler.AcknowledgePacket(pkt, ack, ackProof, p.b.height-1); !errors.Is(err, ErrPacketAlreadyDelivered) {
		t.Fatalf("second ack = %v, want ErrPacketAlreadyDelivered", err)
	}
}

func TestPathToKeyStructuredSequences(t *testing.T) {
	// Sequential sequences on one channel must be adjacent keys.
	k1 := PathToKey(ReceiptPath("transfer", "channel-0", 10))
	k2 := PathToKey(ReceiptPath("transfer", "channel-0", 11))
	if !bytes.Equal(k1[:24], k2[:24]) {
		t.Fatal("sequence keys do not share their channel prefix")
	}
	if k1[31]+1 != k2[31] {
		t.Fatalf("sequences not adjacent: %x vs %x", k1[24:], k2[24:])
	}
	// Different channels must be in different namespaces.
	k3 := PathToKey(ReceiptPath("transfer", "channel-1", 10))
	if bytes.Equal(k1[:24], k3[:24]) {
		t.Fatal("different channels share a key prefix")
	}
	// Commitments and receipts are namespaced apart.
	k4 := PathToKey(CommitmentPath("transfer", "channel-0", 10))
	if k4[0] == k1[0] {
		t.Fatal("commitment and receipt namespaces collide")
	}
	// Unstructured paths hash flat.
	k5 := PathToKey(ConnectionPath("connection-0"))
	k6 := PathToKey(ConnectionPath("connection-1"))
	if k5 == k6 {
		t.Fatal("distinct connection paths collide")
	}
}

func TestStoreSealReclaimsSequentialReceipts(t *testing.T) {
	s := NewStore()
	for i := uint64(1); i <= 256; i++ {
		must(t, s.Set(ReceiptPath("transfer", "channel-0", i), []byte{1}))
	}
	nodesFull := s.Trie().NodeCount()
	for i := uint64(1); i <= 256; i++ {
		must(t, s.Seal(ReceiptPath("transfer", "channel-0", i)))
	}
	if s.Trie().NodeCount() >= nodesFull/10 {
		t.Fatalf("sealing reclaimed too little: %d -> %d nodes", nodesFull, s.Trie().NodeCount())
	}
}

func must(t testing.TB, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

func TestTimeoutPacketOrderedClosesChannel(t *testing.T) {
	p := newPair(t, Ordered)
	timeout := p.b.now.Add(3 * time.Second)
	pkt, _, _ := p.send(t, []byte("ordered-timeout"), timeout)
	p.b.commit()
	p.b.commit()
	h := p.b.height - 1

	// Ordered timeout proof: B's nextSequenceRecv (still 1) proven at h.
	value, proof, err := p.b.snaps[h].ProveMembership(NextSequenceRecvPath(pkt.DestPort, pkt.DestChannel))
	must(t, err)
	combined := append(append([]byte{}, value...), proof...)
	must(t, p.a.handler.TimeoutPacket(pkt, combined, h))
	if len(p.modA.timeouts) != 1 {
		t.Fatal("timeout callback not delivered")
	}
	// The ordered channel must now be closed; further sends fail.
	ch, err := p.a.handler.Channel(pkt.SourcePort, pkt.SourceChannel)
	must(t, err)
	if ch.State != StateClosed {
		t.Fatalf("channel state = %v, want CLOSED", ch.State)
	}
	if _, err := p.a.handler.SendPacket(pkt.SourcePort, pkt.SourceChannel, []byte("x"), 0, time.Time{}); !errors.Is(err, ErrChannelClosed) {
		t.Fatalf("send on closed channel = %v, want ErrChannelClosed", err)
	}
}

func TestTimeoutPacketOrderedRejectsAdvancedSequence(t *testing.T) {
	p := newPair(t, Ordered)
	timeout := p.b.now.Add(3 * time.Second)
	pkt, proof, h := p.send(t, []byte("delivered-ordered"), timeout)
	// B receives it in time.
	_, err := p.b.handler.RecvPacket(pkt, proof, h)
	must(t, err)
	p.b.commit()
	p.b.commit()
	hb := p.b.height - 1
	// nextSequenceRecv is now 2 > pkt.Sequence: the timeout claim fails.
	value, nsrProof, err := p.b.snaps[hb].ProveMembership(NextSequenceRecvPath(pkt.DestPort, pkt.DestChannel))
	must(t, err)
	combined := append(append([]byte{}, value...), nsrProof...)
	if err := p.a.handler.TimeoutPacket(pkt, combined, hb); err == nil {
		t.Fatal("timeout of a delivered ordered packet accepted")
	}
}

func TestChannelCloseHandshake(t *testing.T) {
	p := newPair(t)
	// A closes voluntarily.
	must(t, p.a.handler.ChanCloseInit("transfer", p.chanA))
	ch, err := p.a.handler.Channel("transfer", p.chanA)
	must(t, err)
	if ch.State != StateClosed {
		t.Fatalf("A state = %v", ch.State)
	}
	// Sends on the closed end fail.
	if _, err := p.a.handler.SendPacket("transfer", p.chanA, []byte("x"), 0, time.Time{}); !errors.Is(err, ErrChannelClosed) {
		t.Fatalf("send after close = %v", err)
	}
	// Double close fails.
	if err := p.a.handler.ChanCloseInit("transfer", p.chanA); !errors.Is(err, ErrInvalidState) {
		t.Fatalf("double close = %v", err)
	}
	// B confirms with a proof of A's closed end.
	p.a.commit()
	_, proof, err := p.a.snaps[p.a.height-1].ProveMembership(ChannelPath("transfer", p.chanA))
	must(t, err)
	must(t, p.b.handler.ChanCloseConfirm("transfer", p.chanB, proof, p.a.height-1))
	chB, err := p.b.handler.Channel("transfer", p.chanB)
	must(t, err)
	if chB.State != StateClosed {
		t.Fatalf("B state = %v", chB.State)
	}
	// Confirm without a valid proof is rejected (fresh pair).
	q := newPair(t)
	garbage, err := q.a.snaps[q.a.height-1].ProveNonMembership(ChannelPath("transfer", "channel-77"))
	must(t, err)
	if err := q.b.handler.ChanCloseConfirm("transfer", q.chanB, garbage, q.a.height-1); !errors.Is(err, ErrProofVerification) {
		t.Fatalf("bogus close proof = %v, want ErrProofVerification", err)
	}
}

func TestQuickPacketWireRoundTrip(t *testing.T) {
	f := func(seq uint64, data []byte, th uint64, tsNanos int64) bool {
		if len(data) == 0 {
			data = []byte{0}
		}
		p := &Packet{
			Sequence:      seq%1000 + 1,
			SourcePort:    "transfer",
			SourceChannel: "channel-0",
			DestPort:      "transfer",
			DestChannel:   "channel-9",
			Data:          data,
			TimeoutHeight: Height(th % 100000),
		}
		if tsNanos > 0 {
			p.TimeoutTimestamp = time.Unix(0, tsNanos).UTC()
		}
		raw := MarshalPacket(p)
		got, err := UnmarshalPacket(raw)
		if err != nil {
			return false
		}
		return got.Sequence == p.Sequence &&
			got.SourcePort == p.SourcePort &&
			bytes.Equal(got.Data, p.Data) &&
			got.TimeoutHeight == p.TimeoutHeight &&
			got.TimeoutTimestamp.Equal(p.TimeoutTimestamp) &&
			bytes.Equal(got.CommitmentBytes(), p.CommitmentBytes())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// forgeDestination returns a delivered packet relabelled to a destination
// channel B never opened, and B's height after the packet's timeout. The
// commitment binds a packet's timeouts and data and its path the source and
// sequence: only A's channel end ties the destination.
func forgeDestination(t *testing.T, p *pair) (*Packet, *Packet, Height) {
	t.Helper()
	pkt, proof, h := p.send(t, []byte("delivered"), p.b.now.Add(3*time.Second))
	_, err := p.b.handler.RecvPacket(pkt, proof, h)
	must(t, err)
	p.b.commit()
	p.b.commit()
	forged := *pkt
	forged.DestChannel = "channel-77"
	return pkt, &forged, p.b.height - 1
}

// TestTimeoutRejectsForgedDestination: B never received anything on the
// forged channel, so absence there proves nothing about the packet; taking
// it would refund tokens B already credited.
func TestTimeoutRejectsForgedDestination(t *testing.T) {
	p := newPair(t)
	pkt, forged, h := forgeDestination(t, p)
	absent, err := p.b.snaps[h].ProveNonMembership(ReceiptPath(forged.DestPort, forged.DestChannel, forged.Sequence))
	must(t, err)
	if err := p.a.handler.TimeoutPacket(forged, absent, h); !errors.Is(err, ErrInvalidPacket) {
		t.Fatalf("timeout with a forged destination = %v, want ErrInvalidPacket", err)
	}
	if len(p.modA.timeouts) != 0 || !p.a.handler.HasCommitment(pkt) {
		t.Fatal("the forged timeout reached the application or cleared the commitment")
	}
}

// TestAckRejectsForgedDestination: an ack B holds on another channel at the
// same sequence settles nothing here, however it reads.
func TestAckRejectsForgedDestination(t *testing.T) {
	p := newPair(t)
	pkt, forged, _ := forgeDestination(t, p)
	errorAck := []byte(`{"error":"refund me"}`)
	must(t, p.b.store.Set(AckPath(forged.DestPort, forged.DestChannel, forged.Sequence), AckCommitmentBytes(errorAck)))
	p.b.commit()
	h := p.b.height - 1
	_, proof, err := p.b.snaps[h].ProveMembership(AckPath(forged.DestPort, forged.DestChannel, forged.Sequence))
	must(t, err)
	if err := p.a.handler.AcknowledgePacket(forged, errorAck, proof, h); !errors.Is(err, ErrInvalidPacket) {
		t.Fatalf("ack with a forged destination = %v, want ErrInvalidPacket", err)
	}
	if len(p.modA.acks) != 0 || !p.a.handler.HasCommitment(pkt) {
		t.Fatal("the forged ack reached the application or cleared the commitment")
	}
}
