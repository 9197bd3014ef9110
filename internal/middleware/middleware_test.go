package middleware

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/ibc"
	"repro/internal/telemetry"
	"repro/internal/transfer"
)

// --- callbacks ---

type fakeHostMeter struct {
	used  uint64
	limit uint64
}

func (m *fakeHostMeter) Consume(n uint64) error {
	if m.used+n > m.limit {
		return errors.New("host: out of compute")
	}
	m.used += n
	return nil
}

func callbacksStack(t *testing.T, cbs *Callbacks) (*Stack, *recorderApp, *[]string) {
	t.Helper()
	var log []string
	app := &recorderApp{log: &log, ack: []byte(`{"result":"AQ=="}`)}
	return NewStack(app, cbs), app, &log
}

func TestCallbacksRecvWithinBudget(t *testing.T) {
	host := &fakeHostMeter{limit: 1000}
	cbs := NewCallbacks(WithMeterSource(func() Meter { return host }))
	ran := false
	cbs.Register("transfer", "chan-b", &Callback{
		Budget: 100,
		OnRecv: func(p ibc.Packet, m Meter) error {
			ran = true
			return m.Consume(60)
		},
	})
	s, _, log := callbacksStack(t, cbs)
	ack, err := s.OnRecvPacket(testPacket())
	if err != nil || !transfer.IsSuccessAck(ack) {
		t.Fatalf("recv = %q, %v", ack, err)
	}
	if !ran {
		t.Fatal("hook did not run")
	}
	if host.used != 60 {
		t.Fatalf("host meter charged %d, want 60", host.used)
	}
	if want := []string{"app:recv"}; len(*log) != 1 || (*log)[0] != want[0] {
		t.Fatalf("app log = %v, want %v", *log, want)
	}
}

// TestCallbacksBudgetExhaustionErrorAck pins the error-containment rule:
// blowing the hook budget yields an error acknowledgement, not a handler
// fault, and the inner application never sees the packet.
func TestCallbacksBudgetExhaustionErrorAck(t *testing.T) {
	host := &fakeHostMeter{limit: 1000}
	cbs := NewCallbacks(WithMeterSource(func() Meter { return host }))
	cbs.Register("transfer", "chan-b", &Callback{
		Budget: 10,
		OnRecv: func(p ibc.Packet, m Meter) error { return m.Consume(50) },
	})
	s, _, log := callbacksStack(t, cbs)
	ack, err := s.OnRecvPacket(testPacket())
	if err != nil {
		t.Fatalf("budget exhaustion must not fault the handler: %v", err)
	}
	if transfer.IsSuccessAck(ack) {
		t.Fatalf("want error ack, got %q", ack)
	}
	if !strings.Contains(string(ack), "budget exhausted") {
		t.Fatalf("ack should name the budget failure: %q", ack)
	}
	if len(*log) != 0 {
		t.Fatalf("inner app must not run on rejection; log = %v", *log)
	}
}

// TestCallbacksHostMeterFaultPropagates: when the HOST meter (not the
// hook budget) runs dry, that is a transaction-level fault and must
// surface as a handler error so the host retries/aborts the transaction.
func TestCallbacksHostMeterFaultPropagates(t *testing.T) {
	host := &fakeHostMeter{limit: 5}
	cbs := NewCallbacks(WithMeterSource(func() Meter { return host }))
	cbs.Register("transfer", "chan-b", &Callback{
		Budget: 1000,
		OnRecv: func(p ibc.Packet, m Meter) error { return m.Consume(50) },
	})
	s, _, _ := callbacksStack(t, cbs)
	if _, err := s.OnRecvPacket(testPacket()); err == nil {
		t.Fatal("host meter fault must propagate as a handler error")
	}
}

func TestCallbacksAckAndTimeoutHooksRunAfterSettlement(t *testing.T) {
	cbs := NewCallbacks()
	var order []string
	cbs.Register("transfer", "chan-a", &Callback{
		Budget:    100,
		OnAck:     func(p ibc.Packet, ack []byte, m Meter) error { order = append(order, "hook:ack"); return nil },
		OnTimeout: func(p ibc.Packet, m Meter) error { order = append(order, "hook:timeout"); return errors.New("boom") },
	})
	var log []string
	app := &recorderApp{log: &log, ack: []byte(`{"result":"AQ=="}`)}
	s := NewStack(app, cbs)
	p := testPacket()
	if err := s.OnAcknowledgementPacket(p, app.ack); err != nil {
		t.Fatalf("ack: %v", err)
	}
	// Settlement errors from the hook are swallowed: the app already settled.
	if err := s.OnTimeoutPacket(p); err != nil {
		t.Fatalf("timeout hook error must be swallowed, got %v", err)
	}
	if len(log) != 2 || log[0] != "app:ack" || log[1] != "app:timeout" {
		t.Fatalf("app log = %v", log)
	}
	if len(order) != 2 || order[0] != "hook:ack" || order[1] != "hook:timeout" {
		t.Fatalf("hook order = %v", order)
	}
}

// --- fees ---

func feePacketData(sender string) []byte {
	return (&transfer.PacketData{Denom: "TOK", Amount: 5, Sender: sender, Receiver: "r"}).Marshal()
}

func TestFeesEscrowSettleAndClaim(t *testing.T) {
	bank := transfer.New("transfer")
	bank.Mint("alice", "fee", 100)
	sched := FeeSchedule{Denom: "fee", RecvFee: 3, AckFee: 2, TimeoutFee: 4}
	fees := NewFees(bank, sched)
	fees.SetPayeeResolver(func(ibc.Packet) string { return "relayer-1" })

	core := &coreSender{log: new([]string)}
	send := NewStack(&quietApp{}, fees).WrapSender(core)

	p, err := send.SendPacket("transfer", "chan-a", feePacketData("alice"), 0, time.Time{})
	if err != nil {
		t.Fatalf("send: %v", err)
	}
	if got := bank.Balance("alice", "fee"); got != 100-9 {
		t.Fatalf("alice after escrow = %d, want 91", got)
	}
	if fees.EscrowedTotal != 9 || fees.PendingCount() != 1 {
		t.Fatalf("escrowed=%d pending=%d", fees.EscrowedTotal, fees.PendingCount())
	}

	// Ack settles: recv+ack fees (5) accrue to the payee, timeout fee (4)
	// refunds to alice.
	stack := NewStack(&quietApp{}, fees)
	if err := stack.OnAcknowledgementPacket(*p, transfer.AckSuccess); err != nil {
		t.Fatalf("ack: %v", err)
	}
	if fees.PendingCount() != 0 {
		t.Fatalf("pending after ack = %d", fees.PendingCount())
	}
	if got := bank.Balance("alice", "fee"); got != 95 {
		t.Fatalf("alice after refund = %d, want 95", got)
	}
	if got := fees.accrued["relayer-1"]["fee"]; got != 5 {
		t.Fatalf("accrued = %d, want 5", got)
	}
	if fees.EscrowedTotal != fees.PaidTotal+fees.RefundedTotal {
		t.Fatalf("conservation: escrowed %d != paid %d + refunded %d",
			fees.EscrowedTotal, fees.PaidTotal, fees.RefundedTotal)
	}

	claimed := fees.Claim("relayer-1")
	if claimed["fee"] != 5 {
		t.Fatalf("claimed = %v", claimed)
	}
	if got := bank.Balance("relayer-1", "fee"); got != 5 {
		t.Fatalf("relayer balance = %d, want 5", got)
	}
	if fees.Claim("relayer-1") != nil {
		t.Fatal("double claim must return nothing")
	}
}

func TestFeesTimeoutRefundsDeliveryLegs(t *testing.T) {
	bank := transfer.New("transfer")
	bank.Mint("alice", "fee", 20)
	fees := NewFees(bank, FeeSchedule{Denom: "fee", RecvFee: 3, AckFee: 2, TimeoutFee: 4})
	fees.SetPayeeResolver(func(ibc.Packet) string { return "relayer-1" })
	core := &coreSender{log: new([]string)}
	send := NewStack(&quietApp{}, fees).WrapSender(core)
	p, err := send.SendPacket("transfer", "chan-a", feePacketData("alice"), 0, time.Time{})
	if err != nil {
		t.Fatalf("send: %v", err)
	}
	if err := NewStack(&quietApp{}, fees).OnTimeoutPacket(*p); err != nil {
		t.Fatalf("timeout: %v", err)
	}
	// Timeout leg (4) earned, delivery legs (5) refunded.
	if got := fees.accrued["relayer-1"]["fee"]; got != 4 {
		t.Fatalf("accrued = %d, want 4", got)
	}
	if got := bank.Balance("alice", "fee"); got != 20-9+5 {
		t.Fatalf("alice = %d, want 16", got)
	}
}

func TestFeesInsufficientBalanceFailsSend(t *testing.T) {
	bank := transfer.New("transfer")
	bank.Mint("poor", "fee", 1)
	fees := NewFees(bank, FeeSchedule{Denom: "fee", RecvFee: 3, AckFee: 2, TimeoutFee: 4})
	core := &coreSender{log: new([]string)}
	send := NewStack(&quietApp{}, fees).WrapSender(core)
	if _, err := send.SendPacket("transfer", "chan-a", feePacketData("poor"), 0, time.Time{}); err == nil {
		t.Fatal("send must fail when the fee escrow cannot be funded")
	}
	if len(*core.log) != 0 {
		t.Fatal("core send must not run when escrow fails")
	}
	if got := bank.Balance("poor", "fee"); got != 1 {
		t.Fatalf("balance disturbed: %d", got)
	}
}

func TestFeesEscrowRollsBackOnSendFailure(t *testing.T) {
	bank := transfer.New("transfer")
	bank.Mint("alice", "fee", 20)
	fees := NewFees(bank, FeeSchedule{Denom: "fee", RecvFee: 1, AckFee: 1, TimeoutFee: 1})
	send := NewStack(&quietApp{}, fees).WrapSender(failSender{})
	if _, err := send.SendPacket("transfer", "chan-a", feePacketData("alice"), 0, time.Time{}); err == nil {
		t.Fatal("want send failure")
	}
	if got := bank.Balance("alice", "fee"); got != 20 {
		t.Fatalf("escrow not rolled back: %d", got)
	}
	if fees.PendingCount() != 0 || fees.EscrowedTotal != 0 {
		t.Fatalf("pending=%d escrowed=%d after failed send", fees.PendingCount(), fees.EscrowedTotal)
	}
}

type failSender struct{}

func (failSender) SendPacket(ibc.PortID, ibc.ChannelID, []byte, ibc.Height, time.Time) (*ibc.Packet, error) {
	return nil, errors.New("channel closed")
}

// --- forwarding ---

// forwardCounts reads the forwarding middleware's counters from reg, which
// WithForwardTelemetry registered them in under "forward".
func forwardCounts(reg *telemetry.Registry) (forwarded, stranded uint64) {
	s := reg.Snapshot()
	return s.Counter("forward.forwarded"), s.Counter("forward.stranded")
}

// TestForwardDenomTrace walks a voucher through an intermediate hop: a
// packet arrives on (transfer, chan-b) carrying native TOK with a forward
// memo; the middleware must re-send the minted voucher
// "transfer/chan-b/TOK" over the next hop with escrow on the hop channel.
func TestForwardDenomTrace(t *testing.T) {
	app := transfer.New("transfer")
	var sent []*ibc.Packet
	core := &coreSender{log: new([]string)}
	rec := func(port ibc.PortID, ch ibc.ChannelID, data []byte, th ibc.Height, tt time.Time) (*ibc.Packet, error) {
		p, err := core.SendPacket(port, ch, data, th, tt)
		if err == nil {
			sent = append(sent, p)
		}
		return p, err
	}
	reg := telemetry.NewRegistry()
	fwd := NewForward("hub-module", func(port ibc.PortID) ForwardBank {
		if port == "transfer" {
			return app
		}
		return nil
	}, senderFunc(rec), WithForwardTelemetry(reg, "forward"))
	s := NewStack(app, fwd)

	memo := ForwardMemo(ForwardInfo{Port: "transfer", Channel: "chan-next", Receiver: "bob"})
	d := &transfer.PacketData{Denom: "TOK", Amount: 7, Sender: "alice", Receiver: "hub-module", Memo: memo}
	p := ibc.Packet{
		Sequence:      1,
		SourcePort:    "transfer",
		SourceChannel: "chan-a",
		DestPort:      "transfer",
		DestChannel:   "chan-b",
		Data:          d.Marshal(),
	}
	ack, err := s.OnRecvPacket(p)
	if err != nil || !transfer.IsSuccessAck(ack) {
		t.Fatalf("recv = %q, %v", ack, err)
	}
	if forwarded, stranded := forwardCounts(reg); forwarded != 1 || stranded != 0 {
		t.Fatalf("forwarded=%d stranded=%d", forwarded, stranded)
	}
	if len(sent) != 1 {
		t.Fatalf("onward packets = %d", len(sent))
	}
	nd, err := transfer.UnmarshalPacketData(sent[0].Data)
	if err != nil {
		t.Fatalf("onward data: %v", err)
	}
	wantDenom := transfer.VoucherPrefix("transfer", "chan-b") + "TOK"
	if nd.Denom != wantDenom || nd.Amount != 7 || nd.Receiver != "bob" || nd.Sender != "hub-module" {
		t.Fatalf("onward data = %+v, want denom %q amount 7 bob", nd, wantDenom)
	}
	// The voucher moved from the module account into hop-channel escrow
	// (chan-next did not mint it, so it is "native" from that channel's
	// point of view and escrows rather than burns).
	if got := app.Balance("hub-module", wantDenom); got != 0 {
		t.Fatalf("module account kept %d vouchers", got)
	}
	if got := app.EscrowedAmount("chan-next", wantDenom); got != 7 {
		t.Fatalf("voucher escrowed %d, want 7", got)
	}
}

// TestForwardReturningHomeUnwinds: a voucher coming back over the channel
// that minted it un-escrows to the original denom, which is what travels
// on the next hop.
func TestForwardReturningHomeUnwinds(t *testing.T) {
	app := transfer.New("transfer")
	// Seed escrow: pretend TOK was sent out over chan-a earlier.
	app.Mint("carol", "TOK", 9)
	out := &transfer.PacketData{Denom: "TOK", Amount: 9, Sender: "carol", Receiver: "remote"}
	if err := app.PrepareSend("chan-a", out); err != nil {
		t.Fatalf("seed escrow: %v", err)
	}

	var sent []*ibc.Packet
	core := &coreSender{log: new([]string)}
	reg := telemetry.NewRegistry()
	fwd := NewForward("hub-module", func(ibc.PortID) ForwardBank { return app },
		senderFunc(func(port ibc.PortID, ch ibc.ChannelID, data []byte, th ibc.Height, tt time.Time) (*ibc.Packet, error) {
			p, err := core.SendPacket(port, ch, data, th, tt)
			if err == nil {
				sent = append(sent, p)
			}
			return p, err
		}), WithForwardTelemetry(reg, "forward"))
	s := NewStack(app, fwd)

	// The voucher returns: denom is prefixed with the REMOTE end's trace of
	// our channel, i.e. source (transfer, chan-peer) → dest (transfer, chan-a).
	memo := ForwardMemo(ForwardInfo{Port: "transfer", Channel: "chan-next", Receiver: "dave"})
	back := &transfer.PacketData{
		Denom:    transfer.VoucherPrefix("transfer", "chan-peer") + "TOK",
		Amount:   9,
		Sender:   "remote",
		Receiver: "hub-module",
		Memo:     memo,
	}
	p := ibc.Packet{
		Sequence:      2,
		SourcePort:    "transfer",
		SourceChannel: "chan-peer",
		DestPort:      "transfer",
		DestChannel:   "chan-a",
		Data:          back.Marshal(),
	}
	ack, err := s.OnRecvPacket(p)
	if err != nil || !transfer.IsSuccessAck(ack) {
		t.Fatalf("recv = %q, %v", ack, err)
	}
	if forwarded, stranded := forwardCounts(reg); forwarded != 1 {
		t.Fatalf("forwarded = %d (stranded %d)", forwarded, stranded)
	}
	nd, _ := transfer.UnmarshalPacketData(sent[0].Data)
	if nd.Denom != "TOK" {
		t.Fatalf("onward denom = %q, want unwound TOK", nd.Denom)
	}
	// Native TOK escrows on the onward channel.
	if got := app.EscrowedAmount("chan-next", "TOK"); got != 9 {
		t.Fatalf("onward escrow = %d, want 9", got)
	}
}

// TestForwardStrandsOnUnknownPort: delivery still acks success; the
// tokens stay at the module account and the stranded counter ticks.
func TestForwardStrandsOnUnknownPort(t *testing.T) {
	app := transfer.New("transfer")
	reg := telemetry.NewRegistry()
	fwd := NewForward("hub-module", func(ibc.PortID) ForwardBank { return nil },
		senderFunc(func(ibc.PortID, ibc.ChannelID, []byte, ibc.Height, time.Time) (*ibc.Packet, error) {
			t.Fatal("sender must not run for an unresolvable hop")
			return nil, nil
		}), WithForwardTelemetry(reg, "forward"))
	s := NewStack(app, fwd)
	memo := ForwardMemo(ForwardInfo{Port: "nosuch", Channel: "chan-x", Receiver: "bob"})
	d := &transfer.PacketData{Denom: "TOK", Amount: 3, Sender: "alice", Receiver: "hub-module", Memo: memo}
	p := ibc.Packet{Sequence: 3, SourcePort: "transfer", SourceChannel: "chan-a",
		DestPort: "transfer", DestChannel: "chan-b", Data: d.Marshal()}
	ack, err := s.OnRecvPacket(p)
	if err != nil || !transfer.IsSuccessAck(ack) {
		t.Fatalf("recv = %q, %v", ack, err)
	}
	if forwarded, stranded := forwardCounts(reg); stranded != 1 || forwarded != 0 {
		t.Fatalf("stranded=%d forwarded=%d", stranded, forwarded)
	}
	voucher := transfer.VoucherPrefix("transfer", "chan-b") + "TOK"
	if got := app.Balance("hub-module", voucher); got != 3 {
		t.Fatalf("stranded tokens = %d, want 3 at module account", got)
	}
}

func TestParseForwardMemo(t *testing.T) {
	if got := ParseForwardMemo(""); got != nil {
		t.Fatalf("empty memo parsed: %+v", got)
	}
	if got := ParseForwardMemo("plain text"); got != nil {
		t.Fatalf("plain memo parsed: %+v", got)
	}
	if got := ParseForwardMemo(`{"forward":{"port":"p"}}`); got != nil {
		t.Fatalf("incomplete memo parsed: %+v", got)
	}
	info := ForwardInfo{Port: "transfer", Channel: "chan-1", Receiver: "r", Memo: "inner"}
	got := ParseForwardMemo(ForwardMemo(info))
	if got == nil || *got != info {
		t.Fatalf("round trip = %+v, want %+v", got, info)
	}
}
