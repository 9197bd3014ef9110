package core

import (
	"errors"
	"fmt"

	"repro/internal/counterparty"
	"repro/internal/host"
	"repro/internal/ibc"
	"repro/internal/lightclient/guestlc"
	"repro/internal/lightclient/tendermint"
	"repro/internal/netsim"
	"repro/internal/telemetry"
)

// The chain RPC front-ends on the simulated network make their call
// handlers idempotent, so ReliableCall's at-least-once delivery composes
// into exactly-once application effects (DESIGN.md §10):
//
//   - host submit: the chain's replay protection rejects a re-sent
//     accepted transaction, so the duplicate is acknowledged as success;
//   - update-client: a header the client already knows is a stale update —
//     the consensus state is in place, so success;
//   - recv-packet: the sealed receipt rejects a second delivery; the ack
//     recorded from the WriteAck event is returned again;
//   - ack-packet / timeout-packet: re-settling a cleared commitment is
//     success.

// recvKey identifies a packet on the receiving side.
func recvKey(p *ibc.Packet) string {
	return fmt.Sprintf("%s/%s/%d", p.DestPort, p.DestChannel, p.Sequence)
}

// hostCall serves wire calls addressed to the host chain's front-end.
func (n *Network) hostCall(_ netsim.NodeID, kind string, payload any) (any, error) {
	if m, ok := payload.(netsim.MsgSubmitTx); ok {
		err := n.Host.Submit(m.Tx)
		if errors.Is(err, host.ErrDuplicateTransaction) {
			// The earlier copy landed; this retry only re-requests the ack.
			err = nil
		}
		return nil, err
	}
	return nil, fmt.Errorf("core: host: unknown call %q", kind)
}

// chainFrontEnd builds the idempotent RPC front-end for one cosmos chain,
// with its own ack record (a deployment may run many chains in one
// process). deliveredBy records which node first delivered each packet:
// the replay path flags a delivery from any other node as Duplicate (a
// lost race) while a relayer's own retry still looks like its one
// delivery, and the fee payee resolver reads the same registry so
// first-to-deliver claims the ICS-29 fee.
func chainFrontEnd(c *counterparty.Chain, deliveredBy map[string]netsim.NodeID) netsim.CallHandler {
	acks := make(map[string][]byte)
	// The bus runs callbacks under its lock: record only, never re-enter.
	c.Handler().Events().Subscribe(func(ev telemetry.Event) {
		if wa, ok := ev.(ibc.EventWriteAck); ok {
			acks[recvKey(wa.Packet)] = wa.Ack
		}
	})
	return func(from netsim.NodeID, kind string, payload any) (any, error) {
		switch m := payload.(type) {
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
				if prev, ok := acks[recvKey(m.Packet)]; ok {
					winner, recorded := deliveredBy[recvKey(m.Packet)]
					return netsim.RespRecvPacket{
						Ack: prev, ProvableAt: c.Height() + 1,
						Duplicate: recorded && winner != from,
					}, nil
				}
			}
			if err != nil {
				return nil, err
			}
			deliveredBy[recvKey(m.Packet)] = from
			return netsim.RespRecvPacket{Ack: ack, ProvableAt: c.Height() + 1}, nil
		case netsim.MsgAckPacket:
			err := c.Handler().AcknowledgePacket(m.Packet, m.Ack, m.Proof, m.ProofHeight)
			if errors.Is(err, ibc.ErrPacketAlreadyDelivered) {
				err = nil
			}
			return nil, err
		case netsim.MsgTimeoutPacket:
			err := c.Handler().TimeoutPacket(m.Packet, m.Proof, m.ProofHeight)
			if errors.Is(err, ibc.ErrPacketAlreadyDelivered) {
				err = nil
			}
			return nil, err
		}
		return nil, fmt.Errorf("core: chain %s: unknown call %q", c.ChainID(), kind)
	}
}
