package middleware

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/ibc"
	"repro/internal/transfer"
)

// Bank is the balance surface the fees middleware escrows against —
// implemented by transfer.App, but any account/denom ledger works.
type Bank interface {
	Balance(account, denom string) uint64
	Credit(account, denom string, amount uint64)
	Debit(account, denom string, amount uint64) error
}

// FeeSchedule is the ICS-29 fee triple escrowed per sent packet.
type FeeSchedule struct {
	Denom string
	// RecvFee and AckFee pay the relayer that delivers the packet and
	// relays its acknowledgement; TimeoutFee pays for a timeout proof.
	// Whichever leg does not happen is refunded to the sender.
	RecvFee, AckFee, TimeoutFee uint64
}

// Total is the amount escrowed at send.
func (f FeeSchedule) Total() uint64 { return f.RecvFee + f.AckFee + f.TimeoutFee }

// Enabled reports whether the schedule escrows anything.
func (f FeeSchedule) Enabled() bool { return f.Denom != "" && f.Total() > 0 }

// Fees is the ICS-29-style relayer-incentivisation middleware. On the
// send path it escrows the fee schedule from the packet sender; on ack it
// pays the recv+ack fees to the registered relayer payee and refunds the
// unused timeout fee; on timeout it pays the timeout fee and refunds the
// rest. Payouts accrue off-bank until the relayer claims them.
type Fees struct {
	PassThrough

	bank     Bank
	schedule FeeSchedule
	payee    string
	// payeeFor, when set, resolves the payee per packet at settlement —
	// the competing-relayer seam: the deployment records which relayer
	// delivered each packet and first-to-deliver claims the fee. An
	// empty result falls back to the static payee.
	payeeFor func(ibc.Packet) string
	// exempt lists module accounts whose sends escrow nothing: onward
	// hops emitted by the forwarding middleware ride the fee the original
	// sender escrowed on the first hop, so charging the forward module
	// again would double-bill (and the module holds no fee denom).
	exempt map[string]bool

	// pending[(port, channel, seq)] remembers who paid and under which
	// schedule, so settlement uses the terms in force at send time.
	pending map[feeKey]pendingFee
	// accrued[payee][denom] is settled-but-unclaimed relayer income.
	accrued map[string]map[string]uint64

	// Conservation totals: Escrowed == Paid + Refunded + outstanding
	// pending at every point in time, and Claimed <= Paid.
	EscrowedTotal, PaidTotal, RefundedTotal, ClaimedTotal uint64
}

type feeKey struct {
	port ibc.PortID
	ch   ibc.ChannelID
	seq  uint64
}

type pendingFee struct {
	refundTo string
	fee      FeeSchedule
}

// FeesOption configures the fees middleware.
type FeesOption func(*Fees)

// WithFeesExemptSender marks a module account whose sends escrow no fee —
// the forwarding module's onward hops, which the original sender already
// paid for on the first hop.
func WithFeesExemptSender(account string) FeesOption {
	return func(f *Fees) {
		if f.exempt == nil {
			f.exempt = make(map[string]bool)
		}
		f.exempt[account] = true
	}
}

// NewFees creates the fees middleware escrowing schedule against bank.
func NewFees(bank Bank, schedule FeeSchedule, opts ...FeesOption) *Fees {
	f := &Fees{
		bank:     bank,
		schedule: schedule,
		pending:  make(map[feeKey]pendingFee),
		accrued:  make(map[string]map[string]uint64),
	}
	for _, o := range opts {
		o(f)
	}
	return f
}

// Name implements Middleware.
func (f *Fees) Name() string { return "fees" }

// SetPayee registers the relayer identity fee payouts accrue to.
func (f *Fees) SetPayee(payee string) { f.payee = payee }

// SetPayeeResolver registers a per-packet payee resolver consulted at
// settlement time. With competing relayers on one channel the escrow
// cannot know the winner at send time; the deployment wires a resolver
// over its delivery registry so the fee pays whichever relayer actually
// delivered the packet. Returning "" falls back to the static payee
// (e.g. for timeout settlements, where no delivery happened).
func (f *Fees) SetPayeeResolver(r func(ibc.Packet) string) { f.payeeFor = r }

// Schedule returns the fee schedule in force.
func (f *Fees) Schedule() FeeSchedule { return f.schedule }

// SendPacket escrows the fee schedule from the transfer sender before the
// packet is committed. Non-transfer payloads pass through unfeed; an
// insufficient fee balance fails the send (the packet never commits).
func (f *Fees) SendPacket(next SendFn, port ibc.PortID, ch ibc.ChannelID, data []byte, th ibc.Height, tt time.Time) (*ibc.Packet, error) {
	if !f.schedule.Enabled() {
		return next(port, ch, data, th, tt)
	}
	d, err := transfer.UnmarshalPacketData(data)
	if err != nil {
		return next(port, ch, data, th, tt)
	}
	if f.exempt[d.Sender] {
		return next(port, ch, data, th, tt)
	}
	total := f.schedule.Total()
	if err := f.bank.Debit(d.Sender, f.schedule.Denom, total); err != nil {
		return nil, fmt.Errorf("middleware: fee escrow: %w", err)
	}
	p, err := next(port, ch, data, th, tt)
	if err != nil {
		// The packet never committed; the escrow returns whence it came.
		f.bank.Credit(d.Sender, f.schedule.Denom, total)
		return nil, err
	}
	f.pending[feeKey{p.SourcePort, p.SourceChannel, p.Sequence}] = pendingFee{refundTo: d.Sender, fee: f.schedule}
	f.EscrowedTotal += total
	return p, nil
}

func (f *Fees) accrue(payee, denom string, amount uint64) {
	if amount == 0 {
		return
	}
	m, ok := f.accrued[payee]
	if !ok {
		m = make(map[string]uint64)
		f.accrued[payee] = m
	}
	m[denom] += amount
}

// settle pays the earned legs to the payee and refunds the rest.
func (f *Fees) settle(p ibc.Packet, earned, refunded uint64, pf pendingFee) {
	payee := f.payee
	if f.payeeFor != nil {
		if resolved := f.payeeFor(p); resolved != "" {
			payee = resolved
		}
	}
	f.accrue(payee, pf.fee.Denom, earned)
	f.PaidTotal += earned
	if refunded > 0 {
		f.bank.Credit(pf.refundTo, pf.fee.Denom, refunded)
		f.RefundedTotal += refunded
	}
}

// OnAcknowledgementPacket pays the recv and ack fees to the payee and
// refunds the timeout fee: the packet was delivered, so the timeout leg
// can never be earned. ICS-29 pays on error acks too — the relayer did
// the delivery work regardless of the application's verdict.
func (f *Fees) OnAcknowledgementPacket(next AckFn, p ibc.Packet, ack []byte) error {
	if pf, ok := f.pending[feeKey{p.SourcePort, p.SourceChannel, p.Sequence}]; ok {
		delete(f.pending, feeKey{p.SourcePort, p.SourceChannel, p.Sequence})
		f.settle(p, pf.fee.RecvFee+pf.fee.AckFee, pf.fee.TimeoutFee, pf)
	}
	return next(p, ack)
}

// OnTimeoutPacket pays the timeout fee and refunds the delivery legs.
func (f *Fees) OnTimeoutPacket(next TimeoutFn, p ibc.Packet) error {
	if pf, ok := f.pending[feeKey{p.SourcePort, p.SourceChannel, p.Sequence}]; ok {
		delete(f.pending, feeKey{p.SourcePort, p.SourceChannel, p.Sequence})
		f.settle(p, pf.fee.TimeoutFee, pf.fee.RecvFee+pf.fee.AckFee, pf)
	}
	return next(p)
}

// Claim moves payee's accrued fees onto the bank and returns what was
// claimed per denom. Implements the relayer.FeeClaimer surface.
func (f *Fees) Claim(payee string) map[string]uint64 {
	acc := f.accrued[payee]
	if len(acc) == 0 {
		return nil
	}
	delete(f.accrued, payee)
	out := make(map[string]uint64, len(acc))
	denoms := make([]string, 0, len(acc))
	for denom := range acc {
		denoms = append(denoms, denom)
	}
	sort.Strings(denoms)
	for _, denom := range denoms {
		amt := acc[denom]
		f.bank.Credit(payee, denom, amt)
		f.ClaimedTotal += amt
		out[denom] = amt
	}
	return out
}

// Accrued returns payee's settled-but-unclaimed income in denom.
func (f *Fees) Accrued(payee, denom string) uint64 { return f.accrued[payee][denom] }

// PendingCount returns the number of packets whose fees are still in
// escrow (sent but not yet settled).
func (f *Fees) PendingCount() int { return len(f.pending) }
