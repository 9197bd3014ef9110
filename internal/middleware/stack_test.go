package middleware

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/ibc"
)

// recorderApp is a base module that logs every callback.
type recorderApp struct {
	log *[]string
	ack []byte
}

func (a *recorderApp) OnChanOpen(ibc.PortID, ibc.ChannelID, string) error {
	*a.log = append(*a.log, "app:open")
	return nil
}

func (a *recorderApp) OnRecvPacket(ibc.Packet) ([]byte, error) {
	*a.log = append(*a.log, "app:recv")
	return a.ack, nil
}

func (a *recorderApp) OnAcknowledgementPacket(ibc.Packet, []byte) error {
	*a.log = append(*a.log, "app:ack")
	return nil
}

func (a *recorderApp) OnTimeoutPacket(ibc.Packet) error {
	*a.log = append(*a.log, "app:timeout")
	return nil
}

// recorderMW logs hook entry then delegates.
type recorderMW struct {
	PassThrough
	name string
	log  *[]string
}

func (m *recorderMW) Name() string { return m.name }

func (m *recorderMW) OnRecvPacket(next RecvFn, p ibc.Packet) ([]byte, error) {
	*m.log = append(*m.log, m.name+":recv")
	return next(p)
}

func (m *recorderMW) OnAcknowledgementPacket(next AckFn, p ibc.Packet, ack []byte) error {
	*m.log = append(*m.log, m.name+":ack")
	return next(p, ack)
}

func (m *recorderMW) OnTimeoutPacket(next TimeoutFn, p ibc.Packet) error {
	*m.log = append(*m.log, m.name+":timeout")
	return next(p)
}

func (m *recorderMW) SendPacket(next SendFn, port ibc.PortID, ch ibc.ChannelID, data []byte, th ibc.Height, tt time.Time) (*ibc.Packet, error) {
	*m.log = append(*m.log, m.name+":send")
	return next(port, ch, data, th, tt)
}

// coreSender is a fake ICS-04 core that logs and fabricates packets.
type coreSender struct {
	log *[]string
	seq uint64
}

func (c *coreSender) SendPacket(port ibc.PortID, ch ibc.ChannelID, data []byte, th ibc.Height, tt time.Time) (*ibc.Packet, error) {
	*c.log = append(*c.log, "core:send")
	c.seq++
	return &ibc.Packet{
		Sequence:      c.seq,
		SourcePort:    port,
		SourceChannel: ch,
		DestPort:      port,
		DestChannel:   "chan-peer",
		Data:          data,
	}, nil
}

func testPacket() ibc.Packet {
	return ibc.Packet{
		Sequence:      1,
		SourcePort:    "transfer",
		SourceChannel: "chan-a",
		DestPort:      "transfer",
		DestChannel:   "chan-b",
		Data:          []byte(`{"denom":"TOK","amount":1,"sender":"s","receiver":"r"}`),
	}
}

// TestStackOrdering pins the chain orders: recv outside-in (outer first,
// app last), ack/timeout inside-out (inner first, app last), send from
// the app outward into core.
func TestStackOrdering(t *testing.T) {
	var log []string
	app := &recorderApp{log: &log, ack: []byte(`{"result":"AQ=="}`)}
	outer := &recorderMW{name: "outer", log: &log}
	inner := &recorderMW{name: "inner", log: &log}
	s := NewStack(app, outer, inner)

	p := testPacket()
	if _, err := s.OnRecvPacket(p); err != nil {
		t.Fatalf("recv: %v", err)
	}
	want := []string{"outer:recv", "inner:recv", "app:recv"}
	if !reflect.DeepEqual(log, want) {
		t.Fatalf("recv order = %v, want %v", log, want)
	}

	log = nil
	if err := s.OnAcknowledgementPacket(p, app.ack); err != nil {
		t.Fatalf("ack: %v", err)
	}
	want = []string{"inner:ack", "outer:ack", "app:ack"}
	if !reflect.DeepEqual(log, want) {
		t.Fatalf("ack order = %v, want %v", log, want)
	}

	log = nil
	if err := s.OnTimeoutPacket(p); err != nil {
		t.Fatalf("timeout: %v", err)
	}
	want = []string{"inner:timeout", "outer:timeout", "app:timeout"}
	if !reflect.DeepEqual(log, want) {
		t.Fatalf("timeout order = %v, want %v", log, want)
	}

	log = nil
	sender := s.WrapSender(&coreSender{log: &log})
	if _, err := sender.SendPacket("transfer", "chan-a", p.Data, 0, time.Time{}); err != nil {
		t.Fatalf("send: %v", err)
	}
	want = []string{"inner:send", "outer:send", "core:send"}
	if !reflect.DeepEqual(log, want) {
		t.Fatalf("send order = %v, want %v", log, want)
	}
}

// TestEmptyStackDelegates proves a zero-middleware stack is a pure
// delegate for every hook.
func TestEmptyStackDelegates(t *testing.T) {
	var log []string
	app := &recorderApp{log: &log, ack: []byte(`{"result":"AQ=="}`)}
	s := NewStack(app)
	if len(s.mws) != 0 {
		t.Fatalf("%d middlewares", len(s.mws))
	}
	p := testPacket()
	ack, err := s.OnRecvPacket(p)
	if err != nil || string(ack) != string(app.ack) {
		t.Fatalf("recv = %q, %v", ack, err)
	}
	if err := s.OnAcknowledgementPacket(p, ack); err != nil {
		t.Fatalf("ack: %v", err)
	}
	if err := s.OnTimeoutPacket(p); err != nil {
		t.Fatalf("timeout: %v", err)
	}
	if err := s.OnChanOpen("transfer", "chan-a", ""); err != nil {
		t.Fatalf("open: %v", err)
	}
	core := &coreSender{log: &log}
	if _, err := s.WrapSender(core).SendPacket("transfer", "chan-a", p.Data, 0, time.Time{}); err != nil {
		t.Fatalf("send: %v", err)
	}
	want := []string{"app:recv", "app:ack", "app:timeout", "app:open", "core:send"}
	if !reflect.DeepEqual(log, want) {
		t.Fatalf("log = %v, want %v", log, want)
	}
}

// quietApp is an allocation-free base module for the overhead checks.
type quietApp struct{ ack []byte }

func (a *quietApp) OnChanOpen(ibc.PortID, ibc.ChannelID, string) error   { return nil }
func (a *quietApp) OnRecvPacket(ibc.Packet) ([]byte, error)              { return a.ack, nil }
func (a *quietApp) OnAcknowledgementPacket(p ibc.Packet, _ []byte) error { return nil }
func (a *quietApp) OnTimeoutPacket(ibc.Packet) error                     { return nil }

// TestStackRecvAllocOverhead enforces the recv-path alloc budget the
// bench gate pins: a stacked recv may cost at most 2 allocs/op more than
// the bare app call (measured: 0 — chains are precomposed closures).
func TestStackRecvAllocOverhead(t *testing.T) {
	app := &quietApp{ack: []byte(`{"result":"AQ=="}`)}
	stack := NewStack(app, &PassNamed{N: "a"}, &PassNamed{N: "b"})
	p := testPacket()
	bare := testing.AllocsPerRun(2000, func() { _, _ = app.OnRecvPacket(p) })
	stacked := testing.AllocsPerRun(2000, func() { _, _ = stack.OnRecvPacket(p) })
	if stacked-bare > 2 {
		t.Fatalf("stacked recv allocs %.1f, bare %.1f: overhead > 2", stacked, bare)
	}
}

// PassNamed is PassThrough with a name, for tests needing inert layers.
type PassNamed struct {
	PassThrough
	N string
}

// Name implements Middleware.
func (p *PassNamed) Name() string { return p.N }
