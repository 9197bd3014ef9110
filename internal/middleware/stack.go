package middleware

import (
	"time"

	"repro/internal/ibc"
)

// Hook function types. Each middleware hook receives the next layer of the
// chain as its first argument and decides whether (and with what) to call
// it — the continuation style keeps chain composition a one-time cost.
type (
	// ChanOpenFn continues a channel-open callback.
	ChanOpenFn func(port ibc.PortID, channel ibc.ChannelID, version string) error
	// RecvFn continues packet delivery and returns the acknowledgement.
	RecvFn func(p ibc.Packet) ([]byte, error)
	// AckFn continues acknowledgement processing.
	AckFn func(p ibc.Packet, ack []byte) error
	// TimeoutFn continues timeout processing.
	TimeoutFn func(p ibc.Packet) error
	// SendFn continues an outgoing send toward the core handler.
	SendFn func(port ibc.PortID, channel ibc.ChannelID, data []byte, timeoutHeight ibc.Height, timeoutTimestamp time.Time) (*ibc.Packet, error)
)

// Middleware is one layer of a packet middleware chain. Implementations
// typically embed PassThrough and override the hooks they care about.
type Middleware interface {
	// Name identifies the middleware for Stack lookup and telemetry.
	Name() string
	OnChanOpen(next ChanOpenFn, port ibc.PortID, channel ibc.ChannelID, version string) error
	OnRecvPacket(next RecvFn, p ibc.Packet) ([]byte, error)
	OnAcknowledgementPacket(next AckFn, p ibc.Packet, ack []byte) error
	OnTimeoutPacket(next TimeoutFn, p ibc.Packet) error
	SendPacket(next SendFn, port ibc.PortID, channel ibc.ChannelID, data []byte, timeoutHeight ibc.Height, timeoutTimestamp time.Time) (*ibc.Packet, error)
}

// PassThrough is a Middleware base whose every hook delegates straight to
// the next layer. Embed it and override selectively.
type PassThrough struct{}

// OnChanOpen delegates to the next layer.
func (PassThrough) OnChanOpen(next ChanOpenFn, port ibc.PortID, channel ibc.ChannelID, version string) error {
	return next(port, channel, version)
}

// OnRecvPacket delegates to the next layer.
func (PassThrough) OnRecvPacket(next RecvFn, p ibc.Packet) ([]byte, error) {
	return next(p)
}

// OnAcknowledgementPacket delegates to the next layer.
func (PassThrough) OnAcknowledgementPacket(next AckFn, p ibc.Packet, ack []byte) error {
	return next(p, ack)
}

// OnTimeoutPacket delegates to the next layer.
func (PassThrough) OnTimeoutPacket(next TimeoutFn, p ibc.Packet) error {
	return next(p)
}

// SendPacket delegates to the next layer.
func (PassThrough) SendPacket(next SendFn, port ibc.PortID, channel ibc.ChannelID, data []byte, timeoutHeight ibc.Height, timeoutTimestamp time.Time) (*ibc.Packet, error) {
	return next(port, channel, data, timeoutHeight, timeoutTimestamp)
}

// Stack is an ordered middleware chain around a base application. It
// implements ibc.Module (recv/ack/timeout/chan-open flow through the
// chain into the app) and ibc.SendMiddleware (application sends flow
// through the chain into the core handler), so Handler.BindPort treats it
// like any other module while wiring both directions.
type Stack struct {
	mws []Middleware

	// Chains precomposed at construction: dispatch is a closure call per
	// layer with zero per-packet allocation.
	chanOpen ChanOpenFn
	recv     RecvFn
	ack      AckFn
	timeout  TimeoutFn
}

var (
	_ ibc.Module         = (*Stack)(nil)
	_ ibc.SendMiddleware = (*Stack)(nil)
)

// NewStack wraps app in mws, with mws[0] outermost (see the package doc
// for the resulting hook orders). An empty stack is a pure delegate.
func NewStack(app ibc.Module, mws ...Middleware) *Stack {
	s := &Stack{mws: mws}

	// recv and chan-open enter outside-in: compose innermost-first so the
	// final closure enters mws[0].
	recv := RecvFn(app.OnRecvPacket)
	open := ChanOpenFn(app.OnChanOpen)
	for i := len(mws) - 1; i >= 0; i-- {
		mw, nextRecv, nextOpen := mws[i], recv, open
		recv = func(p ibc.Packet) ([]byte, error) { return mw.OnRecvPacket(nextRecv, p) }
		open = func(port ibc.PortID, ch ibc.ChannelID, v string) error {
			return mw.OnChanOpen(nextOpen, port, ch, v)
		}
	}
	s.recv, s.chanOpen = recv, open

	// ack and timeout enter inside-out: the layer closest to the app sees
	// the settlement first, mirroring the send direction it intercepted.
	ack := AckFn(app.OnAcknowledgementPacket)
	tmo := TimeoutFn(app.OnTimeoutPacket)
	for i := 0; i < len(mws); i++ {
		mw, nextAck, nextTmo := mws[i], ack, tmo
		ack = func(p ibc.Packet, raw []byte) error { return mw.OnAcknowledgementPacket(nextAck, p, raw) }
		tmo = func(p ibc.Packet) error { return mw.OnTimeoutPacket(nextTmo, p) }
	}
	s.ack, s.timeout = ack, tmo
	return s
}

// Middleware returns the first middleware named name, or nil. Deployments
// use it to reach a layer for registration calls (fee claiming, callback
// hooks) after the stack was assembled from configuration.
func (s *Stack) Middleware(name string) Middleware {
	for _, mw := range s.mws {
		if mw.Name() == name {
			return mw
		}
	}
	return nil
}

// HookBudget implements ibc.HookBudgeter: the sum of what the layers that
// charge the host meter in hook declare for one run on (port, channel). A
// layer that meters its hooks declares them by implementing
// ibc.HookBudgeter itself.
func (s *Stack) HookBudget(hook ibc.Hook, port ibc.PortID, channel ibc.ChannelID) uint64 {
	var units uint64
	for _, mw := range s.mws {
		if b, ok := mw.(ibc.HookBudgeter); ok {
			units += b.HookBudget(hook, port, channel)
		}
	}
	return units
}

// OnChanOpen implements ibc.Module.
func (s *Stack) OnChanOpen(port ibc.PortID, channel ibc.ChannelID, version string) error {
	return s.chanOpen(port, channel, version)
}

// OnRecvPacket implements ibc.Module: outside-in through the chain.
func (s *Stack) OnRecvPacket(p ibc.Packet) ([]byte, error) {
	return s.recv(p)
}

// OnAcknowledgementPacket implements ibc.Module: inside-out.
func (s *Stack) OnAcknowledgementPacket(p ibc.Packet, ack []byte) error {
	return s.ack(p, ack)
}

// OnTimeoutPacket implements ibc.Module: inside-out.
func (s *Stack) OnTimeoutPacket(p ibc.Packet) error {
	return s.timeout(p)
}

// senderFunc adapts a composed SendFn to ibc.PacketSender.
type senderFunc SendFn

func (f senderFunc) SendPacket(port ibc.PortID, channel ibc.ChannelID, data []byte, timeoutHeight ibc.Height, timeoutTimestamp time.Time) (*ibc.Packet, error) {
	return f(port, channel, data, timeoutHeight, timeoutTimestamp)
}

// WrapSender implements ibc.SendMiddleware: application sends enter the
// innermost middleware first and travel outward into core. Composed once
// per bind, like the recv-side chains.
func (s *Stack) WrapSender(core ibc.PacketSender) ibc.PacketSender {
	send := SendFn(core.SendPacket)
	for i := 0; i < len(s.mws); i++ {
		mw, next := s.mws[i], send
		send = func(port ibc.PortID, ch ibc.ChannelID, data []byte, th ibc.Height, tt time.Time) (*ibc.Packet, error) {
			return mw.SendPacket(next, port, ch, data, th, tt)
		}
	}
	return senderFunc(send)
}
