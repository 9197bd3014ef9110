package netsim

import (
	"errors"
	"fmt"

	"repro/internal/host"
	"repro/internal/ibc"
)

// Wire message kinds. Notifications (one-way) carry chain heads; calls
// carry submissions and IBC handler operations.
const (
	// KindHostBlock notifies daemons of a new host block (host -> all). It
	// carries no payload: daemons pull the blocks from their host.Reader,
	// so a notification delayed or dropped in flight holds no block in
	// memory.
	KindHostBlock = "host.block"
	// KindCPBlock notifies the relayer of a new counterparty block (no
	// payload).
	KindCPBlock = "cp.block"
	// KindSubmitTx submits a host transaction (daemon -> host, call).
	KindSubmitTx = "host.submit"
	// KindTx submits a transaction — an ordered list of IBC datagrams — to a
	// Cosmos chain's front-end (call).
	KindTx = "cp.tx"
)

// MsgSubmitTx is the KindSubmitTx payload: an ordered submission. The host
// admits Txs in order, so with equal fees they execute in that order, in
// one block when its budget allows; each still executes, and fails, on its
// own.
type MsgSubmitTx struct {
	Txs []*host.Transaction
}

// HostFrontEnd serves the calls addressed to the host chain's RPC
// front-end: transaction submission. Like a cosmos chain's
// (counterparty.Chain.FrontEnd) it is idempotent, so ReliableCall's
// at-least-once delivery composes into exactly-once effects: the chain's
// replay protection rejects a re-sent accepted transaction, so the
// duplicate is acknowledged as success. A submission stops at the first
// transaction the host refuses and answers with its error.
func HostFrontEnd(chain *host.Chain) CallHandler {
	return func(_ NodeID, kind string, payload any) (any, error) {
		m, ok := payload.(MsgSubmitTx)
		if !ok {
			return nil, fmt.Errorf("netsim: host: unknown call %q", kind)
		}
		for _, tx := range m.Txs {
			// A duplicate's earlier copy landed; this retry only re-requests
			// the ack.
			if err := chain.Submit(tx); err != nil && !errors.Is(err, host.ErrDuplicateTransaction) {
				return nil, err
			}
		}
		return nil, nil
	}
}

// MsgTx is the KindTx payload. Msgs holds MsgUpdateClient, MsgRecvPacket,
// MsgAckPacket and MsgTimeoutPacket values, applied in order; the response
// is one TxResult per message. Unlike a Cosmos transaction it is not
// all-or-nothing: each message stands alone, so a replayed transaction is
// idempotent message by message (DESIGN.md §8).
type MsgTx struct {
	Msgs []any
}

// TxResult is the outcome of one message of a transaction.
type TxResult struct {
	Resp any
	Err  error
}

// MsgUpdateClient runs UpdateClient on the chain.
type MsgUpdateClient struct {
	ClientID ibc.ClientID
	Header   []byte
}

// MsgRecvPacket runs RecvPacket on the chain; its TxResult.Resp is a
// RespRecvPacket.
type MsgRecvPacket struct {
	Packet      *ibc.Packet
	Proof       []byte
	ProofHeight ibc.Height
}

// RespRecvPacket is what a delivered MsgRecvPacket answers with.
type RespRecvPacket struct {
	// Ack is the acknowledgement the receiving chain wrote.
	Ack []byte
	// ProvableAt is the first receiver height whose root commits the ack.
	ProvableAt uint64
	// Duplicate marks a replayed delivery: the packet had already been
	// received (by a retry of the same relayer, or by a competing relayer
	// that won the race) and Ack is the recorded acknowledgement. The
	// idempotent front-end reports success either way; Duplicate lets the
	// losing relayer count the lost race instead of double-counting a
	// delivery.
	Duplicate bool
}

// MsgAckPacket runs AcknowledgePacket on the chain.
type MsgAckPacket struct {
	Packet      *ibc.Packet
	Ack         []byte
	Proof       []byte
	ProofHeight ibc.Height
}

// MsgTimeoutPacket runs TimeoutPacket on the chain. Proof is receipt
// non-membership (unordered channels) at ProofHeight on the destination.
type MsgTimeoutPacket struct {
	Packet      *ibc.Packet
	Proof       []byte
	ProofHeight ibc.Height
}
