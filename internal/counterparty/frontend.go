package counterparty

import (
	"errors"
	"fmt"

	"repro/internal/ibc"
	"repro/internal/lightclient/guestlc"
	"repro/internal/lightclient/tendermint"
	"repro/internal/netsim"
	"repro/internal/telemetry"
)

// RecvKey identifies a packet on the receiving side.
type RecvKey struct {
	Port     ibc.PortID
	Channel  ibc.ChannelID
	Sequence uint64
}

// RecvKeyOf returns p's receive-side key.
func RecvKeyOf(p *ibc.Packet) RecvKey {
	return RecvKey{p.DestPort, p.DestChannel, p.Sequence}
}

// FrontEnd builds the chain's RPC front-end on the simulated network. It
// serves one call, the transaction (netsim.MsgTx): the messages are applied
// in order and each answers for itself, so a message that fails leaves the
// ones around it standing. Every message is idempotent, which turns
// ReliableCall's at-least-once delivery of the whole transaction into
// exactly-once application effects (DESIGN.md §8):
//
//   - update-client: a header the client already knows is a stale update —
//     the consensus state is in place, so success;
//   - recv-packet: the sealed receipt rejects a second delivery; the ack
//     recorded from the WriteAck event is returned again;
//   - ack-packet / timeout-packet: re-settling a cleared commitment is
//     success.
//
// The front-end keeps its own ack record (a deployment may run many chains
// in one process). deliveredBy records which node first delivered each
// packet: the replay path flags a delivery from any other node as Duplicate
// (a lost race) while a relayer's own retry still looks like its one
// delivery, and the fee payee resolver reads the same registry so
// first-to-deliver claims the ICS-29 fee.
func (c *Chain) FrontEnd(deliveredBy map[RecvKey]netsim.NodeID) netsim.CallHandler {
	acks := make(map[RecvKey][]byte)
	// The bus runs callbacks under its lock: record only, never re-enter.
	c.Handler().Events().Subscribe(func(ev telemetry.Event) {
		if wa, ok := ev.(ibc.EventWriteAck); ok {
			acks[RecvKeyOf(wa.Packet)] = wa.Ack
		}
	})
	settled := func(err error) error {
		if errors.Is(err, ibc.ErrPacketAlreadyDelivered) {
			return nil
		}
		return err
	}
	apply := func(from netsim.NodeID, msg any) (any, error) {
		switch m := msg.(type) {
		case netsim.MsgUpdateClient:
			err := c.Handler().UpdateClient(m.ClientID, m.Header)
			if errors.Is(err, guestlc.ErrStaleBlock) || errors.Is(err, tendermint.ErrStaleHeader) {
				// The client already holds this height's consensus state.
				err = nil
			}
			return nil, err
		case netsim.MsgRecvPacket:
			ack, err := c.Handler().RecvPacket(m.Packet, m.Proof, m.ProofHeight)
			if errors.Is(err, ibc.ErrPacketAlreadyDelivered) {
				key := RecvKeyOf(m.Packet)
				if prev, ok := acks[key]; ok {
					winner, recorded := deliveredBy[key]
					return netsim.RespRecvPacket{
						Ack: prev, ProvableAt: c.Height() + 1,
						Duplicate: recorded && winner != from,
					}, nil
				}
			}
			if err != nil {
				return nil, err
			}
			deliveredBy[RecvKeyOf(m.Packet)] = from
			return netsim.RespRecvPacket{Ack: ack, ProvableAt: c.Height() + 1}, nil
		case netsim.MsgAckPacket:
			return nil, settled(c.Handler().AcknowledgePacket(m.Packet, m.Ack, m.Proof, m.ProofHeight))
		case netsim.MsgTimeoutPacket:
			return nil, settled(c.Handler().TimeoutPacket(m.Packet, m.Proof, m.ProofHeight))
		}
		return nil, fmt.Errorf("counterparty: chain %s: unknown message %T", c.ChainID(), msg)
	}
	return func(from netsim.NodeID, kind string, payload any) (any, error) {
		tx, ok := payload.(netsim.MsgTx)
		if !ok {
			return nil, fmt.Errorf("counterparty: chain %s: unknown call %q", c.ChainID(), kind)
		}
		results := make([]netsim.TxResult, len(tx.Msgs))
		for i, m := range tx.Msgs {
			results[i].Resp, results[i].Err = apply(from, m)
		}
		return results, nil
	}
}
