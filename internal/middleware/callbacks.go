package middleware

import (
	"errors"
	"fmt"

	"repro/internal/ibc"
	"repro/internal/telemetry"
	"repro/internal/transfer"
)

// ErrBudgetExhausted is returned by a callback's Meter once the hook has
// burned its per-invocation compute budget. On recv it surfaces as an
// error acknowledgement, never as a handler fault.
var ErrBudgetExhausted = errors.New("middleware: callback budget exhausted")

// Meter is the compute interface a callback charges against (a bounded
// view of the host compute meter).
type Meter interface {
	Consume(n uint64) error
}

// MeterSource returns the live host compute meter of the transaction
// currently executing, or nil when no metered context is active (e.g. the
// counterparty chain, which does not meter contract compute).
type MeterSource func() Meter

// Callback is a set of user-registered per-packet lifecycle hooks with a
// bounded compute budget. Any nil hook is skipped.
type Callback struct {
	// OnRecv runs before the application receives the packet; an error
	// (including budget exhaustion) rejects delivery with an error ack and
	// the application never sees the packet.
	OnRecv func(p ibc.Packet, m Meter) error
	// OnAck and OnTimeout run after the application settles the packet;
	// their errors are counted and swallowed, since settlement has already
	// happened and cannot be rejected retroactively.
	OnAck     func(p ibc.Packet, ack []byte, m Meter) error
	OnTimeout func(p ibc.Packet, m Meter) error
	// Budget is the compute-unit allowance per hook invocation.
	Budget uint64
}

// budgetMeter charges every unit through the host meter first (so hook
// compute is paid for like any other contract compute), then against the
// hook's own allowance. It distinguishes the two exhaustion modes: a host
// failure is a transaction-level fault, a budget failure is the hook's.
type budgetMeter struct {
	host      Meter
	remaining uint64
	hostErr   error
}

func (m *budgetMeter) Consume(n uint64) error {
	if m.host != nil {
		if err := m.host.Consume(n); err != nil {
			m.hostErr = err
			return err
		}
	}
	if n > m.remaining {
		m.remaining = 0
		return ErrBudgetExhausted
	}
	m.remaining -= n
	return nil
}

// Callbacks is the user-hook middleware: contracts register per-(port,
// channel) lifecycle hooks that run inside the packet pipeline under a
// bounded compute budget (the ibc-go apps/callbacks shape).
type Callbacks struct {
	PassThrough

	source MeterSource
	hooks  map[hookKey]*Callback

	telemetry *telemetry.Registry
	metricsNS string
	cExecuted *telemetry.Counter
	cRejected *telemetry.Counter
}

type hookKey struct {
	port ibc.PortID
	ch   ibc.ChannelID
}

// CallbacksOption configures the callbacks middleware.
type CallbacksOption func(*Callbacks)

// WithMeterSource wires the live host compute meter lookup; hook budgets
// are charged through it so callback compute is paid like contract
// compute.
func WithMeterSource(src MeterSource) CallbacksOption {
	return func(c *Callbacks) { c.source = src }
}

// WithCallbacksTelemetry registers the middleware's counters in reg.
func WithCallbacksTelemetry(reg *telemetry.Registry, ns string) CallbacksOption {
	return func(c *Callbacks) { c.telemetry, c.metricsNS = reg, ns }
}

// NewCallbacks creates the callbacks middleware.
func NewCallbacks(opts ...CallbacksOption) *Callbacks {
	c := &Callbacks{
		hooks:     make(map[hookKey]*Callback),
		metricsNS: "callbacks",
	}
	for _, o := range opts {
		o(c)
	}
	c.cExecuted = c.telemetry.Counter(c.metricsNS + ".executed")
	c.cRejected = c.telemetry.Counter(c.metricsNS + ".recv_rejected")
	return c
}

// Name implements Middleware.
func (c *Callbacks) Name() string { return "callbacks" }

// Register installs cb for packets on (port, channel). Recv hooks key on
// the packet's destination end, ack/timeout hooks on its source end —
// i.e. the end this chain owns in both cases.
func (c *Callbacks) Register(port ibc.PortID, ch ibc.ChannelID, cb *Callback) {
	c.hooks[hookKey{port, ch}] = cb
}

// HookBudget implements ibc.HookBudgeter: the compute allowance of the hook
// of that kind registered on (port, channel), 0 without one — the most one
// run of it may charge the host meter through this layer.
func (c *Callbacks) HookBudget(hook ibc.Hook, port ibc.PortID, ch ibc.ChannelID) uint64 {
	cb := c.hooks[hookKey{port, ch}]
	if cb == nil {
		return 0
	}
	registered := false
	switch hook {
	case ibc.HookRecv:
		registered = cb.OnRecv != nil
	case ibc.HookAck:
		registered = cb.OnAck != nil
	case ibc.HookTimeout:
		registered = cb.OnTimeout != nil
	}
	if !registered {
		return 0
	}
	return cb.Budget
}

func (c *Callbacks) meter(budget uint64) *budgetMeter {
	m := &budgetMeter{remaining: budget}
	if c.source != nil {
		m.host = c.source()
	}
	return m
}

// OnRecvPacket runs the registered recv hook before delivery. A hook
// error rejects the packet with an error acknowledgement — unless the
// host meter itself failed, which stays a transaction fault.
func (c *Callbacks) OnRecvPacket(next RecvFn, p ibc.Packet) ([]byte, error) {
	cb := c.hooks[hookKey{p.DestPort, p.DestChannel}]
	if cb == nil || cb.OnRecv == nil {
		return next(p)
	}
	m := c.meter(cb.Budget)
	if err := cb.OnRecv(p, m); err != nil {
		if m.hostErr != nil {
			return nil, fmt.Errorf("middleware: recv callback: %w", m.hostErr)
		}
		c.cRejected.Inc()
		return transfer.AckError(fmt.Sprintf("callback: %v", err)), nil
	}
	c.cExecuted.Inc()
	return next(p)
}

// OnAcknowledgementPacket runs the registered ack hook after settlement;
// hook errors are swallowed, host-meter faults propagate.
func (c *Callbacks) OnAcknowledgementPacket(next AckFn, p ibc.Packet, ack []byte) error {
	if err := next(p, ack); err != nil {
		return err
	}
	cb := c.hooks[hookKey{p.SourcePort, p.SourceChannel}]
	if cb == nil || cb.OnAck == nil {
		return nil
	}
	m := c.meter(cb.Budget)
	if err := cb.OnAck(p, ack, m); err != nil {
		if m.hostErr != nil {
			return fmt.Errorf("middleware: ack callback: %w", m.hostErr)
		}
		return nil
	}
	c.cExecuted.Inc()
	return nil
}

// OnTimeoutPacket runs the registered timeout hook after settlement, with
// the same error policy as acks.
func (c *Callbacks) OnTimeoutPacket(next TimeoutFn, p ibc.Packet) error {
	if err := next(p); err != nil {
		return err
	}
	cb := c.hooks[hookKey{p.SourcePort, p.SourceChannel}]
	if cb == nil || cb.OnTimeout == nil {
		return nil
	}
	m := c.meter(cb.Budget)
	if err := cb.OnTimeout(p, m); err != nil {
		if m.hostErr != nil {
			return fmt.Errorf("middleware: timeout callback: %w", m.hostErr)
		}
		return nil
	}
	c.cExecuted.Inc()
	return nil
}
