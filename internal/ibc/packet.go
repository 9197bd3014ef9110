package ibc

import (
	"encoding/binary"
	"fmt"
	"time"

	"repro/internal/cryptoutil"
)

// Packet is an IBC datagram in flight between two chains (ICS-04).
type Packet struct {
	Sequence         uint64    `json:"sequence"`
	SourcePort       PortID    `json:"source_port"`
	SourceChannel    ChannelID `json:"source_channel"`
	DestPort         PortID    `json:"dest_port"`
	DestChannel      ChannelID `json:"dest_channel"`
	Data             []byte    `json:"data"`
	TimeoutHeight    Height    `json:"timeout_height"`    // 0 = no height timeout
	TimeoutTimestamp time.Time `json:"timeout_timestamp"` // zero = no time timeout
}

// Validate performs static packet checks.
func (p *Packet) Validate() error {
	if p.Sequence == 0 {
		return fmt.Errorf("%w: zero sequence", ErrInvalidPacket)
	}
	if p.SourcePort == "" || p.SourceChannel == "" || p.DestPort == "" || p.DestChannel == "" {
		return fmt.Errorf("%w: missing route", ErrInvalidPacket)
	}
	if len(p.Data) == 0 {
		return fmt.Errorf("%w: empty data", ErrInvalidPacket)
	}
	return nil
}

// CommitmentBytes returns the value committed into the provable store for
// an outgoing packet: H(timeoutTimestamp || timeoutHeight || H(data)),
// following the ibc-go construction. The sequence and route are bound by
// the commitment path.
func (p *Packet) CommitmentBytes() []byte {
	var buf [16]byte
	var ts uint64
	if !p.TimeoutTimestamp.IsZero() {
		ts = uint64(p.TimeoutTimestamp.UnixNano())
	}
	binary.BigEndian.PutUint64(buf[0:8], ts)
	binary.BigEndian.PutUint64(buf[8:16], uint64(p.TimeoutHeight))
	dataHash := cryptoutil.HashBytes(p.Data)
	commit := cryptoutil.HashConcat(buf[:], dataHash[:])
	return commit[:]
}

// TimedOut reports whether the packet's timeout has elapsed relative to the
// destination chain's height and time.
func (p *Packet) TimedOut(destHeight Height, destTime time.Time) bool {
	if p.TimeoutHeight != 0 && destHeight >= p.TimeoutHeight {
		return true
	}
	if !p.TimeoutTimestamp.IsZero() && !destTime.Before(p.TimeoutTimestamp) {
		return true
	}
	return false
}

// AckCommitmentBytes returns the value committed for an acknowledgement.
func AckCommitmentBytes(ack []byte) []byte {
	h := cryptoutil.HashBytes(ack)
	return h[:]
}

// receiptValue is the constant value stored under receipt paths.
var receiptValue = []byte{1}

// sequenceValue encodes a sequence number as a stored value.
func sequenceValue(seq uint64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], seq)
	return b[:]
}

// decodeSequence reverses sequenceValue.
func decodeSequence(b []byte) (uint64, error) {
	if len(b) != 8 {
		return 0, fmt.Errorf("ibc: bad sequence encoding (%d bytes)", len(b))
	}
	return binary.BigEndian.Uint64(b), nil
}

// Module is an IBC application bound to a port (ICS-05/ICS-26 callbacks).
type Module interface {
	// OnChanOpen lets the application validate a channel being opened on
	// its port.
	OnChanOpen(port PortID, channel ChannelID, version string) error
	// OnRecvPacket processes an incoming packet and returns the
	// acknowledgement to commit.
	OnRecvPacket(p Packet) ([]byte, error)
	// OnAcknowledgementPacket delivers the counterparty's ack for a
	// packet this application sent.
	OnAcknowledgementPacket(p Packet, ack []byte) error
	// OnTimeoutPacket notifies the application a sent packet timed out.
	OnTimeoutPacket(p Packet) error
}

// Hook names one of a module's three packet callbacks.
type Hook uint8

// The packet callbacks a module may meter.
const (
	HookRecv Hook = iota
	HookAck
	HookTimeout
)

// End is the (port, channel) whose module runs hook for p: the destination
// end on recv, the source end on ack and timeout.
func (h Hook) End(p *Packet) (PortID, ChannelID) {
	if h == HookRecv {
		return p.DestPort, p.DestChannel
	}
	return p.SourcePort, p.SourceChannel
}

// HookBudgeter is implemented by modules and middleware layers whose packet
// callbacks charge the compute meter of the transaction that runs them:
// HookBudget is the most one run of hook on (port, channel) may charge.
// Whoever applies several packets in one transaction bounds the batch with
// it.
type HookBudgeter interface {
	HookBudget(hook Hook, port PortID, channel ChannelID) uint64
}

// PacketSender is the send side of the packet lifecycle: assign a
// sequence, commit the packet, return it. Handler implements it (the core
// ICS-04 send); middleware stacks wrap it to intercept outgoing packets
// before they reach the core — the ICS4-wrapper direction of ICS-30.
type PacketSender interface {
	SendPacket(port PortID, channel ChannelID, data []byte, timeoutHeight Height, timeoutTimestamp time.Time) (*Packet, error)
}

// SendMiddleware is implemented by modules (middleware stacks) that also
// intercept the send path. When such a module is bound on a port, the
// handler routes application-originated sends (Handler.AppSendPacket)
// through WrapSender(core) instead of straight into the core send.
type SendMiddleware interface {
	Module
	// WrapSender returns the send chain with core as its innermost layer.
	WrapSender(core PacketSender) PacketSender
}
