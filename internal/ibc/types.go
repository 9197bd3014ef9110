// Package ibc implements the chain-agnostic core of the Inter-Blockchain
// Communication protocol as the paper relies on it (§II): ICS-02 client
// semantics, the ICS-03 connection handshake, ICS-04 channels and packets
// (ordered and unordered, with acknowledgements and timeouts), ICS-24
// commitment paths, and a port router. Both the guest blockchain and the
// Cosmos-like counterparty embed this handler over their own provable
// stores and light clients.
package ibc

import (
	"errors"
	"fmt"
	"time"
)

// Height is a block height on either chain (single revision number; the
// guest blockchain has no hard forks to track revisions for).
type Height uint64

// ClientID identifies a light client instance ("guest-0", "tendermint-0").
type ClientID string

// ConnectionID identifies a connection end ("connection-0").
type ConnectionID string

// ChannelID identifies a channel end ("channel-0").
type ChannelID string

// PortID identifies an application port ("transfer", "gov").
type PortID string

// Ordering is the channel ordering discipline.
type Ordering uint8

// Channel orderings.
const (
	// Unordered channels deliver packets in any order, at most once.
	Unordered Ordering = iota + 1
	// Ordered channels deliver packets strictly by sequence.
	Ordered
)

// String implements fmt.Stringer.
func (o Ordering) String() string {
	switch o {
	case Unordered:
		return "UNORDERED"
	case Ordered:
		return "ORDERED"
	default:
		return fmt.Sprintf("Ordering(%d)", uint8(o))
	}
}

// State is the handshake state shared by connections and channels.
type State uint8

// Handshake states.
const (
	StateUninitialized State = iota
	StateInit
	StateTryOpen
	StateOpen
	StateClosed
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case StateUninitialized:
		return "UNINITIALIZED"
	case StateInit:
		return "INIT"
	case StateTryOpen:
		return "TRYOPEN"
	case StateOpen:
		return "OPEN"
	case StateClosed:
		return "CLOSED"
	default:
		return fmt.Sprintf("State(%d)", uint8(s))
	}
}

// Sentinel errors returned by the IBC handler. Every failure path wraps one
// of these with %w, so callers branch with errors.Is instead of matching
// message strings.
var (
	ErrClientNotFound         = errors.New("ibc: client not found")
	ErrClientExists           = errors.New("ibc: client already exists")
	ErrConnectionNotFound     = errors.New("ibc: connection not found")
	ErrChannelNotFound        = errors.New("ibc: channel not found")
	ErrInvalidState           = errors.New("ibc: unexpected handshake state")
	ErrProofVerification      = errors.New("ibc: proof verification failed")
	ErrPacketExpired          = errors.New("ibc: packet timeout has elapsed")
	ErrPacketNotExpired       = errors.New("ibc: packet timeout has not elapsed")
	ErrPacketAlreadyDelivered = errors.New("ibc: packet already delivered")
	ErrSequenceMismatch       = errors.New("ibc: out-of-order packet on ordered channel")
	ErrPortNotBound           = errors.New("ibc: port not bound")
	ErrPortAlreadyBound       = errors.New("ibc: port already bound")
	ErrChannelClosed          = errors.New("ibc: channel is closed")
	ErrInvalidPacket          = errors.New("ibc: invalid packet")
	ErrInvalidOrdering        = errors.New("ibc: invalid channel ordering")
	ErrAppRejected            = errors.New("ibc: application callback failed")
	ErrReceiptLost            = errors.New("ibc: receipt write lost")
)

// Client is a light client of a counterparty chain, stored in the local
// chain's state (ICS-02). Implementations: lightclient/guest (quorum of
// validator signatures) and lightclient/tendermint (BFT commits).
type Client interface {
	// LatestHeight returns the most recent verified counterparty height.
	LatestHeight() Height
	// Update verifies a serialized counterparty header and records its
	// consensus state. now is the local chain time (for trust windows and
	// rate limiting).
	Update(header []byte, now time.Time) error
	// VerifyMembership checks proof that the ICS-24 path maps to value
	// under the counterparty state root at height.
	VerifyMembership(height Height, path string, value []byte, proof []byte) error
	// VerifyNonMembership checks proof that the path is absent at height.
	VerifyNonMembership(height Height, path string, proof []byte) error
	// ConsensusTime returns the counterparty timestamp recorded at
	// height; used for packet timeouts.
	ConsensusTime(height Height) (time.Time, error)
	// StateBytes returns the serialized client state; the counterparty
	// validates it during connection handshakes (self-client validation,
	// the introspection step incomplete IBC ports leave blank).
	StateBytes() []byte
}

// Counterparty identifies the remote end of a connection.
type Counterparty struct {
	ClientID     ClientID
	ConnectionID ConnectionID
}

// ConnectionEnd is the local state of a connection (ICS-03).
type ConnectionEnd struct {
	State        State
	ClientID     ClientID
	Counterparty Counterparty
}

// ChannelCounterparty identifies the remote end of a channel.
type ChannelCounterparty struct {
	PortID    PortID
	ChannelID ChannelID
}

// ChannelEnd is the local state of a channel (ICS-04).
type ChannelEnd struct {
	State        State
	Ordering     Ordering
	Counterparty ChannelCounterparty
	ConnectionID ConnectionID
	Version      string
}
