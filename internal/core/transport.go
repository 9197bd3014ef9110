package core

import (
	"errors"
	"fmt"

	"repro/internal/host"
	"repro/internal/netsim"
)

// hostCall serves wire calls addressed to the host chain's front-end. Like
// a cosmos chain's (counterparty.Chain.FrontEnd) it is idempotent, so
// ReliableCall's at-least-once delivery composes into exactly-once
// application effects (DESIGN.md §10): the chain's replay protection
// rejects a re-sent accepted transaction, so the duplicate is acknowledged
// as success.
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
