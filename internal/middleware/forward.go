package middleware

import (
	"encoding/json"
	"strings"
	"time"

	"repro/internal/ibc"
	"repro/internal/telemetry"
	"repro/internal/transfer"
)

// ForwardInfo names the next hop of a multi-hop transfer, carried in the
// ICS-20 memo under the "forward" key (the transfer-v2 shape).
type ForwardInfo struct {
	Port     string `json:"port"`
	Channel  string `json:"channel"`
	Receiver string `json:"receiver"`
	// Memo is attached to the next-hop packet; nesting another forward
	// memo here chains additional hops.
	Memo string `json:"memo,omitempty"`
}

type forwardMemo struct {
	Forward *ForwardInfo `json:"forward"`
}

// ForwardMemo encodes info as a transfer memo the Forward middleware acts
// on. The first-hop packet's receiver must be the middleware's module
// account, which funds the onward leg.
func ForwardMemo(info ForwardInfo) string {
	raw, err := json.Marshal(forwardMemo{Forward: &info})
	if err != nil {
		// A plain struct cannot fail to marshal.
		panic("middleware: marshal forward memo: " + err.Error())
	}
	return string(raw)
}

// ParseForwardMemo extracts a forward instruction from a memo, or nil if
// the memo carries none (or is not JSON).
func ParseForwardMemo(memo string) *ForwardInfo {
	if memo == "" || !strings.Contains(memo, `"forward"`) {
		return nil
	}
	var m forwardMemo
	if err := json.Unmarshal([]byte(memo), &m); err != nil {
		return nil
	}
	if m.Forward == nil || m.Forward.Port == "" || m.Forward.Channel == "" || m.Forward.Receiver == "" {
		return nil
	}
	return m.Forward
}

// ForwardBank is the slice of transfer.App the forwarding middleware
// drives on the next-hop port: escrow/burn for the onward send, rollback
// if the send never commits.
type ForwardBank interface {
	PrepareSend(srcChannel ibc.ChannelID, d *transfer.PacketData) error
	CancelSend(srcChannel ibc.ChannelID, d *transfer.PacketData) error
}

// AppResolver maps a next-hop port to its transfer app on this chain, or
// nil for unknown ports.
type AppResolver func(port ibc.PortID) ForwardBank

// Forward is the packet-forwarding middleware: after the inner transfer
// app delivers tokens to the middleware's module account, a forward memo
// re-sends them over the named (port, channel) with ICS-20 denom tracing
// preserved — the received denom (un-escrowed native token or freshly
// minted voucher) is exactly what travels onward.
//
// Forwarding failures (unknown port, closed channel, misaddressed
// receiver) never fail delivery: hop one has settled, so the tokens stay
// at the module account, the stranded counter ticks, and hop one acks
// success.
type Forward struct {
	PassThrough

	account string
	resolve AppResolver
	sender  ibc.PacketSender

	// timeout/now configure the onward packet's timestamp timeout; zero
	// timeout (the default) sends without one.
	timeout time.Duration
	now     func() time.Time

	telemetry  *telemetry.Registry
	metricsNS  string
	cForwarded *telemetry.Counter
	cStranded  *telemetry.Counter
}

// ForwardOption configures the forwarding middleware.
type ForwardOption func(*Forward)

// WithForwardTimeout gives onward packets a timestamp timeout of d from
// now() at forward time.
func WithForwardTimeout(d time.Duration, now func() time.Time) ForwardOption {
	return func(f *Forward) { f.timeout, f.now = d, now }
}

// WithForwardTelemetry registers the middleware's counters in reg.
func WithForwardTelemetry(reg *telemetry.Registry, ns string) ForwardOption {
	return func(f *Forward) { f.telemetry, f.metricsNS = reg, ns }
}

// NewForward creates the forwarding middleware. account is the module
// account intermediate hops pay into; resolve finds the next hop's
// transfer app; sender is the chain-level send entry point (it must make
// the onward packet relayable, e.g. queue it into the next block's packet
// list, not just commit it).
func NewForward(account string, resolve AppResolver, sender ibc.PacketSender, opts ...ForwardOption) *Forward {
	f := &Forward{
		account:   account,
		resolve:   resolve,
		sender:    sender,
		metricsNS: "forward",
	}
	for _, o := range opts {
		o(f)
	}
	f.cForwarded = f.telemetry.Counter(f.metricsNS + ".forwarded")
	f.cStranded = f.telemetry.Counter(f.metricsNS + ".stranded")
	return f
}

// Name implements Middleware.
func (f *Forward) Name() string { return "forward" }

// OnRecvPacket delivers the packet through the inner chain, then re-sends
// the received tokens over the hop named in the memo.
func (f *Forward) OnRecvPacket(next RecvFn, p ibc.Packet) ([]byte, error) {
	var info *ForwardInfo
	d, derr := transfer.UnmarshalPacketData(p.Data)
	if derr == nil {
		info = ParseForwardMemo(d.Memo)
	}
	ack, err := next(p)
	if err != nil || info == nil || !transfer.IsSuccessAck(ack) {
		return ack, err
	}
	if d.Receiver != f.account {
		// The memo asked to forward but the funds went to someone else;
		// nothing to forward from the module account.
		f.cStranded.Inc()
		return ack, nil
	}

	// ICS-20 denom trace of what the inner app just credited: a token
	// returning home was un-escrowed as its original denom, anything else
	// was minted as a voucher traced through our end of the channel.
	srcPrefix := transfer.VoucherPrefix(p.SourcePort, p.SourceChannel)
	denom := d.Denom
	if strings.HasPrefix(denom, srcPrefix) {
		denom = strings.TrimPrefix(denom, srcPrefix)
	} else {
		denom = transfer.VoucherPrefix(p.DestPort, p.DestChannel) + denom
	}

	hopPort, hopCh := ibc.PortID(info.Port), ibc.ChannelID(info.Channel)
	app := f.resolve(hopPort)
	if app == nil {
		f.cStranded.Inc()
		return ack, nil
	}
	nd := &transfer.PacketData{
		Denom:    denom,
		Amount:   d.Amount,
		Sender:   f.account,
		Receiver: info.Receiver,
		Memo:     info.Memo,
	}
	if err := app.PrepareSend(hopCh, nd); err != nil {
		f.cStranded.Inc()
		return ack, nil
	}
	var tt time.Time
	if f.timeout > 0 && f.now != nil {
		tt = f.now().Add(f.timeout)
	}
	if _, err := f.sender.SendPacket(hopPort, hopCh, nd.Marshal(), 0, tt); err != nil {
		// The onward packet never committed: undo the escrow/burn so the
		// tokens sit claimably at the module account instead of limbo.
		_ = app.CancelSend(hopCh, nd)
		f.cStranded.Inc()
		return ack, nil
	}
	f.cForwarded.Inc()
	return ack, nil
}
