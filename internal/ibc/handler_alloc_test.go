package ibc

import (
	"testing"
	"time"
)

// TestChannelKeysMatchPathToKey: every key the handler keeps for a channel
// is PathToKey of the path its builder spells, for ordinary identifiers and
// for ones holding a '/', whose sequenced paths hash flat.
func TestChannelKeysMatchPathToKey(t *testing.T) {
	for _, id := range []struct {
		port PortID
		ch   ChannelID
	}{
		{"transfer", "channel-0"},
		{"gov", "channel-12"},
		{"", "channel-0"},
		{"a/b", "channel-0"},
		{"transfer", "c/d"},
		{"x/channels/y", "z"},
	} {
		c := newChannel(id.port, id.ch)
		if want := PathToKey(NextSequenceSendPath(id.port, id.ch)); c.nextSend != want {
			t.Errorf("%s/%s: nextSend key %x, want %x", id.port, id.ch, c.nextSend, want)
		}
		if want := PathToKey(NextSequenceRecvPath(id.port, id.ch)); c.nextRecv != want {
			t.Errorf("%s/%s: nextRecv key %x, want %x", id.port, id.ch, c.nextRecv, want)
		}
		for _, ns := range []struct {
			name    string
			keys    *seqKeys
			builder func(PortID, ChannelID, uint64) string
		}{
			{"commitment", &c.commitments, CommitmentPath},
			{"receipt", &c.receipts, ReceiptPath},
			{"ack", &c.acks, AckPath},
		} {
			for _, seq := range []uint64{0, 1, 9, 10, 255, 256, 1 << 32, 1<<64 - 1} {
				path := ns.builder(id.port, id.ch, seq)
				if got := ns.keys.path(seq); got != path {
					t.Errorf("%s path of %d = %q, want %q", ns.name, seq, got, path)
				}
				if got, want := ns.keys.at(seq), PathToKey(path); got != want {
					t.Errorf("%s key of %q = %x, want %x", ns.name, path, got, want)
				}
			}
		}
	}
}

// TestPacketPathAllocations pins what each packet step costs the handler
// on an open channel: the channel's end, next-sequence and packet keys come
// from the handler's tables, so what remains is the packet, its stored
// values and their hashes. Each count is exact: a step that spells, hashes
// or decodes again per packet shows here.
func TestPacketPathAllocations(t *testing.T) {
	const runs = 100
	p := newPair(t)
	data := []byte("payload")

	// Send runs+1 packets (AllocsPerRun warms up once), then commit them.
	sent := make([]*Packet, 0, runs+1)
	send := func() {
		pkt, err := p.a.handler.SendPacket("transfer", p.chanA, data, 0, time.Time{})
		if err != nil {
			t.Fatal(err)
		}
		sent = append(sent, pkt)
	}
	if got := testing.AllocsPerRun(runs, send); got != sendAllocs {
		t.Errorf("SendPacket: %.0f allocations, want %d", got, sendAllocs)
	}
	p.a.commit()
	ha := p.a.height - 1
	proofs := make([][]byte, len(sent))
	for i, pkt := range sent {
		_, proof, err := p.a.snaps[ha].ProveMembership(CommitmentPath(pkt.SourcePort, pkt.SourceChannel, pkt.Sequence))
		must(t, err)
		proofs[i] = proof
	}
	p.modB.recvd = make([]Packet, 0, len(sent)) // the echo module's log grows outside the count

	i := 0
	acks := make([][]byte, len(sent))
	recv := func() {
		ack, err := p.b.handler.RecvPacket(sent[i], proofs[i], ha)
		if err != nil {
			t.Fatal(err)
		}
		acks[i] = ack
		i++
	}
	if got := testing.AllocsPerRun(runs, recv); got != recvAllocs {
		t.Errorf("RecvPacket: %.0f allocations, want %d", got, recvAllocs)
	}
	p.b.commit()
	hb := p.b.height - 1
	for i, pkt := range sent {
		_, proof, err := p.b.snaps[hb].ProveMembership(AckPath(pkt.DestPort, pkt.DestChannel, pkt.Sequence))
		must(t, err)
		proofs[i] = proof
	}
	p.modA.acks = make([][]byte, 0, len(sent))

	i = 0
	ack := func() {
		if err := p.a.handler.AcknowledgePacket(sent[i], acks[i], proofs[i], hb); err != nil {
			t.Fatal(err)
		}
		i++
	}
	if got := testing.AllocsPerRun(runs, ack); got != ackAllocs {
		t.Errorf("AcknowledgePacket: %.0f allocations, want %d", got, ackAllocs)
	}
}

// The pinned counts of TestPacketPathAllocations.
const (
	sendAllocs = 5
	recvAllocs = 6
	ackAllocs  = 3
)
