package guest

import (
	"repro/internal/guestblock"
	"repro/internal/ibc"
)

// Event payload types emitted by the Guest Contract into the host event
// log. Off-chain actors consume them by type-switching on
// host.Event.Payload: validators watch new blocks, relayers finalised blocks
// and delivered packets (Alg. 2). Each implements telemetry.Event, and a
// kind is emitted only while something reads it (DESIGN.md §13).

// EventNewBlock reports a freshly minted (not yet finalised) guest block.
type EventNewBlock struct {
	Block *guestblock.Block
}

// EventKind implements telemetry.Event.
func (EventNewBlock) EventKind() string { return "NewBlock" }

// EventFinalisedBlock reports a guest block reaching quorum finality.
type EventFinalisedBlock struct {
	Entry *BlockEntry
}

// EventKind implements telemetry.Event.
func (EventFinalisedBlock) EventKind() string { return "FinalisedBlock" }

// EventClientUpdated reports a committed light-client update and how many
// host transactions the chunked upload took (the Fig. 4 statistic).
type EventClientUpdated struct {
	ClientID ibc.ClientID
	Height   ibc.Height
	Txs      int
}

// EventKind implements telemetry.Event.
func (EventClientUpdated) EventKind() string { return "ClientUpdated" }

// EventPacketDelivered reports an incoming packet delivered to its
// destination application with the acknowledgement that was committed.
type EventPacketDelivered struct {
	Packet *ibc.Packet
	Ack    []byte
}

// EventKind implements telemetry.Event.
func (EventPacketDelivered) EventKind() string { return "PacketDelivered" }

// EventPacketAcked reports the acknowledgement for a guest-sent packet
// landing back on the guest chain.
type EventPacketAcked struct {
	Packet *ibc.Packet
}

// EventKind implements telemetry.Event.
func (EventPacketAcked) EventKind() string { return "PacketAcked" }

// EventPacketTimedOut reports a guest-sent packet proven undelivered past
// its timeout.
type EventPacketTimedOut struct {
	Packet *ibc.Packet
}

// EventKind implements telemetry.Event.
func (EventPacketTimedOut) EventKind() string { return "PacketTimedOut" }
