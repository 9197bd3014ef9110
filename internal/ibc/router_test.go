package ibc

import (
	"errors"
	"testing"
	"time"
)

func TestRouterBindAndRoute(t *testing.T) {
	r := NewRouter()
	mod := &echoModule{}
	must(t, r.Bind("transfer", mod))
	if err := r.Bind("transfer", &echoModule{}); !errors.Is(err, ErrPortAlreadyBound) {
		t.Fatalf("duplicate bind = %v, want ErrPortAlreadyBound", err)
	}
	if err := r.Bind("nil-port", nil); err == nil {
		t.Fatal("binding a nil module accepted")
	}
	got, err := r.Route("transfer")
	must(t, err)
	if got != Module(mod) {
		t.Fatal("Route returned a different module")
	}
	if _, err := r.Route("unknown"); !errors.Is(err, ErrPortNotBound) {
		t.Fatalf("unknown port = %v, want ErrPortNotBound", err)
	}
	other := &echoModule{}
	must(t, r.Bind("zzz", other))
	if got, err := r.Route("zzz"); err != nil || got != Module(other) {
		t.Fatalf("Route(zzz) = %v, %v: a second binding", got, err)
	}
	if got, err := r.Route("transfer"); err != nil || got != Module(mod) {
		t.Fatalf("Route(transfer) = %v, %v after a second binding", got, err)
	}
}

func TestHandlerBindPortDuplicate(t *testing.T) {
	c := newMockChain("A")
	must(t, c.handler.BindPort("transfer", &echoModule{}))
	if err := c.handler.BindPort("transfer", &echoModule{}); !errors.Is(err, ErrPortAlreadyBound) {
		t.Fatalf("duplicate BindPort = %v, want ErrPortAlreadyBound", err)
	}
	if _, err := c.handler.Router().Route("transfer"); err != nil {
		t.Fatalf("handler router lost the binding: %v", err)
	}
}

func TestChanOpenInitUnboundPortRejected(t *testing.T) {
	p := newPair(t)
	if _, err := p.a.handler.ChanOpenInit("ghost-port", p.connA, "transfer", Unordered, "v1"); !errors.Is(err, ErrPortNotBound) {
		t.Fatalf("ChanOpenInit on unbound port = %v, want ErrPortNotBound", err)
	}
}

func TestPacketOpsUnknownRouteRejected(t *testing.T) {
	p := newPair(t)
	// Send on a channel that was never opened.
	if _, err := p.a.handler.SendPacket("transfer", "channel-99", []byte("x"), 0, time.Time{}); !errors.Is(err, ErrChannelNotFound) {
		t.Fatalf("send on unknown channel = %v, want ErrChannelNotFound", err)
	}
	// Recv addressed to a port/channel this chain never bound or opened.
	pkt, proof, h := p.send(t, []byte("misroute"), time.Time{})
	bad := *pkt
	bad.DestPort = "ghost-port"
	bad.DestChannel = "channel-99"
	if _, err := p.b.handler.RecvPacket(&bad, proof, h); !errors.Is(err, ErrChannelNotFound) {
		t.Fatalf("recv on unknown route = %v, want ErrChannelNotFound", err)
	}
}

// openExtraChannel opens one more channel between the pair's chains over
// the existing connection, binding fresh modules on a new port on both
// sides — the multiplexing shape the relayer's shards serve.
func openExtraChannel(t *testing.T, p *pair, port PortID, ordering Ordering) (ChannelID, ChannelID, *echoModule, *echoModule) {
	t.Helper()
	modA, modB := &echoModule{}, &echoModule{}
	must(t, p.a.handler.BindPort(port, modA))
	must(t, p.b.handler.BindPort(port, modB))

	chanA, err := p.a.handler.ChanOpenInit(port, p.connA, port, ordering, "v1")
	must(t, err)
	p.a.commit()
	_, proofInit, err := p.a.snaps[p.a.height-1].ProveMembership(ChannelPath(port, chanA))
	must(t, err)
	chanB, err := p.b.handler.ChanOpenTry(port, p.connB,
		ChannelCounterparty{PortID: port, ChannelID: chanA},
		ordering, "v1", proofInit, p.a.height-1)
	must(t, err)
	p.b.commit()
	_, proofTry, err := p.b.snaps[p.b.height-1].ProveMembership(ChannelPath(port, chanB))
	must(t, err)
	must(t, p.a.handler.ChanOpenAck(port, chanA, chanB, proofTry, p.b.height-1))
	p.a.commit()
	_, proofAck, err := p.a.snaps[p.a.height-1].ProveMembership(ChannelPath(port, chanA))
	must(t, err)
	must(t, p.b.handler.ChanOpenConfirm(port, chanB, proofAck, p.a.height-1))
	return chanA, chanB, modA, modB
}

// TestOrderedTimeoutClosesOneChannelOthersDeliver pins per-channel
// isolation across the router: an ordered channel's close-on-timeout
// must not disturb an unordered channel multiplexed over the same
// connection — its sequences, receipts, and module keep working.
func TestOrderedTimeoutClosesOneChannelOthersDeliver(t *testing.T) {
	p := newPair(t, Ordered)
	uChanA, _, _, uModB := openExtraChannel(t, p, "transfer-1", Unordered)

	// A packet on the unordered channel before the incident.
	pkt1, err := p.a.handler.SendPacket("transfer-1", uChanA, []byte("before"), 0, time.Time{})
	must(t, err)
	p.a.commit()
	h1 := p.a.height - 1
	_, proof1, err := p.a.snaps[h1].ProveMembership(CommitmentPath(pkt1.SourcePort, pkt1.SourceChannel, pkt1.Sequence))
	must(t, err)
	_, err = p.b.handler.RecvPacket(pkt1, proof1, h1)
	must(t, err)

	// Ordered-channel packet times out; the channel closes.
	timeout := p.b.now.Add(3 * time.Second)
	pkt, _, _ := p.send(t, []byte("ordered-timeout"), timeout)
	p.b.commit()
	p.b.commit()
	h := p.b.height - 1
	value, proof, err := p.b.snaps[h].ProveMembership(NextSequenceRecvPath(pkt.DestPort, pkt.DestChannel))
	must(t, err)
	combined := append(append([]byte{}, value...), proof...)
	must(t, p.a.handler.TimeoutPacket(pkt, combined, h))
	ch, err := p.a.handler.Channel(pkt.SourcePort, pkt.SourceChannel)
	must(t, err)
	if ch.State != StateClosed {
		t.Fatalf("ordered channel state = %v, want CLOSED", ch.State)
	}
	if _, err := p.a.handler.SendPacket(pkt.SourcePort, pkt.SourceChannel, []byte("x"), 0, time.Time{}); !errors.Is(err, ErrChannelClosed) {
		t.Fatalf("send on closed ordered channel = %v, want ErrChannelClosed", err)
	}

	// The unordered channel keeps delivering after the closure.
	pkt2, err := p.a.handler.SendPacket("transfer-1", uChanA, []byte("after"), 0, time.Time{})
	must(t, err)
	if pkt2.Sequence != pkt1.Sequence+1 {
		t.Fatalf("unordered channel sequence jumped: %d -> %d", pkt1.Sequence, pkt2.Sequence)
	}
	p.a.commit()
	h2 := p.a.height - 1
	_, proof2, err := p.a.snaps[h2].ProveMembership(CommitmentPath(pkt2.SourcePort, pkt2.SourceChannel, pkt2.Sequence))
	must(t, err)
	_, err = p.b.handler.RecvPacket(pkt2, proof2, h2)
	must(t, err)
	if len(uModB.recvd) != 2 {
		t.Fatalf("unordered module received %d packets, want 2", len(uModB.recvd))
	}
	uch, err := p.a.handler.Channel("transfer-1", uChanA)
	must(t, err)
	if uch.State != StateOpen {
		t.Fatalf("unordered channel state = %v, want OPEN after sibling closure", uch.State)
	}
}
