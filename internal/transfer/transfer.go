// Package transfer implements an ICS-20-style fungible token transfer
// application: escrow on the source chain, voucher minting on the
// destination, refunds on failed acknowledgements and timeouts, and denom
// tracing so tokens returning home are un-escrowed rather than re-minted.
// It runs unchanged on both the guest blockchain and the counterparty,
// demonstrating that the guest blockchain presents a standard IBC surface.
package transfer

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strings"

	"repro/internal/ibc"
)

// PacketData is the fungible-token packet payload (ICS-20 shape).
type PacketData struct {
	Denom    string `json:"denom"`
	Amount   uint64 `json:"amount"`
	Sender   string `json:"sender"`
	Receiver string `json:"receiver"`
	// Memo pads packets to realistic sizes; the deployment's packets
	// carried metadata that pushed ReceivePacket to 4-5 host
	// transactions (§V-A).
	Memo string `json:"memo,omitempty"`
}

// Acks mirror the ICS-20 result/error acknowledgement split.
var (
	AckSuccess = []byte(`{"result":"AQ=="}`)
)

// AckError builds an error acknowledgement.
func AckError(reason string) []byte {
	raw, err := json.Marshal(map[string]string{"error": reason})
	if err != nil {
		return []byte(`{"error":"internal"}`)
	}
	return raw
}

// IsSuccessAck reports whether ack is a success acknowledgement: a JSON
// object with a "result" member. AckSuccess, the one every transfer app
// writes, is recognised by its bytes before any decoding.
func IsSuccessAck(ack []byte) bool {
	if bytes.Equal(ack, AckSuccess) {
		return true
	}
	var m map[string]json.RawMessage
	if err := json.Unmarshal(ack, &m); err != nil {
		return false
	}
	_, ok := m["result"]
	return ok
}

// Marshal encodes packet data.
func (d *PacketData) Marshal() []byte {
	raw, err := json.Marshal(d)
	if err != nil {
		// A plain struct cannot fail to marshal.
		panic(fmt.Sprintf("transfer: marshal packet data: %v", err))
	}
	return raw
}

// UnmarshalPacketData decodes packet data.
func UnmarshalPacketData(raw []byte) (*PacketData, error) {
	var d PacketData
	if err := json.Unmarshal(raw, &d); err != nil {
		return nil, fmt.Errorf("transfer: decode packet data: %w", err)
	}
	if d.Amount == 0 {
		return nil, errors.New("transfer: zero amount")
	}
	if d.Denom == "" || d.Sender == "" || d.Receiver == "" {
		return nil, errors.New("transfer: missing fields")
	}
	return &d, nil
}

// App is the transfer module instance on one chain.
type App struct {
	port ibc.PortID

	// balances[account][denom] = amount. Accounts are free-form strings
	// (host addresses on the guest side, bech32-ish on the counterparty).
	balances map[string]map[string]uint64

	// escrow[channel][denom] tracks locked source-chain tokens.
	escrow map[ibc.ChannelID]map[string]uint64
}

var _ ibc.Module = (*App)(nil)

// New creates a transfer app for the given port.
func New(port ibc.PortID) *App {
	return &App{
		port:     port,
		balances: make(map[string]map[string]uint64),
		escrow:   make(map[ibc.ChannelID]map[string]uint64),
	}
}

// Mint credits tokens out of thin air (genesis supply / faucet).
func (a *App) Mint(account, denom string, amount uint64) {
	a.credit(account, denom, amount)
}

// Balance returns account's balance in denom.
func (a *App) Balance(account, denom string) uint64 {
	return a.balances[account][denom]
}

// EscrowedAmount returns the channel escrow balance for denom.
func (a *App) EscrowedAmount(ch ibc.ChannelID, denom string) uint64 {
	return a.escrow[ch][denom]
}

func (a *App) credit(account, denom string, amount uint64) {
	m, ok := a.balances[account]
	if !ok {
		m = make(map[string]uint64)
		a.balances[account] = m
	}
	m[denom] += amount
}

func (a *App) debit(account, denom string, amount uint64) error {
	if a.balances[account][denom] < amount {
		return fmt.Errorf("transfer: %s has %d %s, needs %d", account, a.balances[account][denom], denom, amount)
	}
	a.balances[account][denom] -= amount
	return nil
}

// Credit adds amount of denom to account. Exported for middleware (fee
// escrow payouts, forwarding refunds) that treats the app as the chain's
// bank; application-internal flows use the unexported helpers.
func (a *App) Credit(account, denom string, amount uint64) {
	a.credit(account, denom, amount)
}

// Debit removes amount of denom from account, failing without side
// effects if the balance is insufficient. Exported for middleware.
func (a *App) Debit(account, denom string, amount uint64) error {
	return a.debit(account, denom, amount)
}

// VoucherPrefix exposes the ICS-20 denom trace prefix for tokens that
// travelled over (port, channel), "port/channel/" — middleware
// (forwarding) and tests use it to reconstruct the denom a recv credited.
func VoucherPrefix(port ibc.PortID, ch ibc.ChannelID) string {
	return string(port) + "/" + string(ch) + "/"
}

// cutVoucherPrefix reports whether denom starts with VoucherPrefix(port,
// ch) and returns the rest, checking the prefix piece by piece rather
// than spelling it.
func cutVoucherPrefix(denom string, port ibc.PortID, ch ibc.ChannelID) (string, bool) {
	for _, piece := range [...]string{string(port), "/", string(ch), "/"} {
		rest, ok := strings.CutPrefix(denom, piece)
		if !ok {
			return "", false
		}
		denom = rest
	}
	return denom, true
}

// PrepareSend debits/escrows sender funds and returns the packet data to
// send over (srcPort, srcChannel). Call it immediately before the chain's
// send-packet mechanism.
//
// Two cases per ICS-20 denom tracing:
//   - native denom: escrow locally, the counterparty mints a voucher;
//   - voucher returning home over the channel it came through: burn here,
//     the counterparty un-escrows.
func (a *App) PrepareSend(srcChannel ibc.ChannelID, d *PacketData) error {
	if err := a.debit(d.Sender, d.Denom, d.Amount); err != nil {
		return err
	}
	if _, voucher := cutVoucherPrefix(d.Denom, a.port, srcChannel); voucher {
		// Voucher going home: burn.
		return nil
	}
	// Native: escrow.
	esc, ok := a.escrow[srcChannel]
	if !ok {
		esc = make(map[string]uint64)
		a.escrow[srcChannel] = esc
	}
	esc[d.Denom] += d.Amount
	return nil
}

// CancelSend reverses PrepareSend for a packet that never left the chain:
// the send transaction was rejected at mempool admission or shed past its
// deadline, so no packet commitment exists and no refund path will ever
// fire. Without this rollback, escrowed (or burned) funds would be
// stranded and per-channel conservation would break under overload.
func (a *App) CancelSend(srcChannel ibc.ChannelID, d *PacketData) error {
	if _, voucher := cutVoucherPrefix(d.Denom, a.port, srcChannel); voucher {
		// The burned voucher comes back into existence.
		a.credit(d.Sender, d.Denom, d.Amount)
		return nil
	}
	esc := a.escrow[srcChannel]
	if esc == nil || esc[d.Denom] < d.Amount {
		return errors.New("transfer: cancel without escrow")
	}
	esc[d.Denom] -= d.Amount
	a.credit(d.Sender, d.Denom, d.Amount)
	return nil
}

// OnChanOpen implements ibc.Module.
func (a *App) OnChanOpen(port ibc.PortID, _ ibc.ChannelID, version string) error {
	if port != a.port {
		return fmt.Errorf("transfer: bound to %q, got channel on %q", a.port, port)
	}
	if version != "" && version != "ics20-1" {
		return fmt.Errorf("transfer: unsupported version %q", version)
	}
	return nil
}

// OnRecvPacket implements ibc.Module.
func (a *App) OnRecvPacket(p ibc.Packet) ([]byte, error) {
	d, err := UnmarshalPacketData(p.Data)
	if err != nil {
		return AckError(err.Error()), nil
	}
	// Sender-side prefix for the channel the packet travelled through.
	if home, ok := cutVoucherPrefix(d.Denom, p.SourcePort, p.SourceChannel); ok {
		// Token returning home: un-escrow the original denom.
		esc := a.escrow[p.DestChannel]
		if esc == nil || esc[home] < d.Amount {
			return AckError("transfer: insufficient escrow"), nil
		}
		esc[home] -= d.Amount
		a.credit(d.Receiver, home, d.Amount)
		return AckSuccess, nil
	}
	// Foreign token arriving: mint a voucher traced through OUR end.
	voucher := string(p.DestPort) + "/" + string(p.DestChannel) + "/" + d.Denom
	a.credit(d.Receiver, voucher, d.Amount)
	return AckSuccess, nil
}

// OnAcknowledgementPacket implements ibc.Module: refund on error acks.
func (a *App) OnAcknowledgementPacket(p ibc.Packet, ack []byte) error {
	if IsSuccessAck(ack) {
		return nil
	}
	return a.refund(p)
}

// OnTimeoutPacket implements ibc.Module: refund.
func (a *App) OnTimeoutPacket(p ibc.Packet) error {
	return a.refund(p)
}

// refund reverses PrepareSend for a failed packet.
func (a *App) refund(p ibc.Packet) error {
	d, err := UnmarshalPacketData(p.Data)
	if err != nil {
		return err
	}
	if _, voucher := cutVoucherPrefix(d.Denom, p.SourcePort, p.SourceChannel); voucher {
		// A burned voucher comes back into existence.
		a.credit(d.Sender, d.Denom, d.Amount)
		return nil
	}
	esc := a.escrow[p.SourceChannel]
	if esc == nil || esc[d.Denom] < d.Amount {
		return errors.New("transfer: refund without escrow")
	}
	esc[d.Denom] -= d.Amount
	a.credit(d.Sender, d.Denom, d.Amount)
	return nil
}
