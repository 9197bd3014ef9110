// Package guestlc implements the guest blockchain's light client — the
// component a counterparty chain runs to verify guest blocks. It is the
// "lightweight light client" of §VI-D: verification is a stake-weighted
// quorum check over Ed25519 signatures plus epoch rotation when a block
// carries the next validator set.
package guestlc

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/guestblock"
	"repro/internal/ibc"
	"repro/internal/wire"
)

// ClientType identifies this light client kind.
const ClientType = "guest-blockchain"

// Errors returned by the client.
var (
	ErrFrozen        = errors.New("guestlc: client frozen due to misbehaviour")
	ErrStaleBlock    = errors.New("guestlc: block height not newer than latest")
	ErrEpochMismatch = errors.New("guestlc: block epoch does not match trusted epoch")
	ErrUnknownHeight = errors.New("guestlc: no consensus state at height")
)

// ConsensusState is the verified guest state at one height.
type ConsensusState struct {
	Time      time.Time
	StateRoot cryptoutil.Hash
}

// Client is a light client tracking the guest blockchain.
type Client struct {
	latest    ibc.Height
	epoch     *guestblock.Epoch
	consensus map[ibc.Height]ConsensusState
	frozen    bool
}

var _ ibc.Client = (*Client)(nil)

// NewClient initialises the client from the guest genesis block and its
// epoch (trusted out of band, like any IBC client anchor).
func NewClient(genesis *guestblock.Block, epoch *guestblock.Epoch) (*Client, error) {
	if genesis.EpochCommitment != epoch.Commitment() {
		return nil, errors.New("guestlc: genesis epoch commitment mismatch")
	}
	c := &Client{
		latest:    ibc.Height(genesis.Height),
		epoch:     epoch,
		consensus: make(map[ibc.Height]ConsensusState),
	}
	c.consensus[c.latest] = ConsensusState{Time: genesis.Time, StateRoot: genesis.StateRoot}
	return c, nil
}

// LatestHeight implements ibc.Client.
func (c *Client) LatestHeight() ibc.Height { return c.latest }

// Frozen implements ibc.Client.
func (c *Client) Frozen() bool { return c.frozen }

// Epoch returns the currently trusted validator set.
func (c *Client) Epoch() *guestblock.Epoch { return c.epoch }

// Update implements ibc.Client: headerBytes is a guestblock.SignedBlock.
func (c *Client) Update(headerBytes []byte, _ time.Time) error {
	sb, err := guestblock.UnmarshalSignedBlock(headerBytes)
	if err != nil {
		return err
	}
	return c.UpdateSigned(sb)
}

// UpdateSigned verifies and applies a decoded signed block.
func (c *Client) UpdateSigned(sb *guestblock.SignedBlock) error {
	if c.frozen {
		return ErrFrozen
	}
	h := ibc.Height(sb.Block.Height)
	if h <= c.latest {
		return fmt.Errorf("%w: %d <= %d", ErrStaleBlock, h, c.latest)
	}
	if sb.Block.EpochIndex != c.epoch.Index {
		return fmt.Errorf("%w: block epoch %d, trusted %d (missed rotation block?)",
			ErrEpochMismatch, sb.Block.EpochIndex, c.epoch.Index)
	}
	next := sb.Block.NextEpoch
	if next != nil && next.Index != c.epoch.Index+1 {
		return fmt.Errorf("guestlc: next epoch index %d, want %d", next.Index, c.epoch.Index+1)
	}
	if err := sb.VerifyQuorum(c.epoch); err != nil {
		return err
	}
	c.latest = h
	c.consensus[h] = ConsensusState{Time: sb.Block.Time, StateRoot: sb.Block.StateRoot}
	if next != nil {
		c.epoch = next
	}
	return nil
}

// VerifyMembership implements ibc.Client.
func (c *Client) VerifyMembership(height ibc.Height, path string, value []byte, proof []byte) error {
	cs, ok := c.consensus[height]
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownHeight, height)
	}
	return ibc.VerifyStoredMembership(cs.StateRoot, path, value, proof)
}

// VerifyNonMembership implements ibc.Client.
func (c *Client) VerifyNonMembership(height ibc.Height, path string, proof []byte) error {
	cs, ok := c.consensus[height]
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownHeight, height)
	}
	return ibc.VerifyStoredNonMembership(cs.StateRoot, path, proof)
}

// ConsensusTime implements ibc.Client.
func (c *Client) ConsensusTime(height ibc.Height) (time.Time, error) {
	cs, ok := c.consensus[height]
	if !ok {
		return time.Time{}, fmt.Errorf("%w: %d", ErrUnknownHeight, height)
	}
	return cs.Time, nil
}

// StateBytes implements ibc.Client: {type, latest, epoch index, epoch
// commitment}.
func (c *Client) StateBytes() []byte {
	w := wire.NewWriter()
	w.String16(ClientType)
	w.U64(uint64(c.latest))
	w.U64(c.epoch.Index)
	w.Hash(c.epoch.Commitment())
	return w.Bytes()
}

// ClientStateInfo is the decoded form of StateBytes.
type ClientStateInfo struct {
	Latest          ibc.Height
	EpochIndex      uint64
	EpochCommitment cryptoutil.Hash
}

// DecodeClientState parses StateBytes output.
func DecodeClientState(data []byte) (*ClientStateInfo, error) {
	r := wire.NewReader(data)
	typ := r.String16()
	info := &ClientStateInfo{
		Latest:     ibc.Height(r.U64()),
		EpochIndex: r.U64(),
	}
	info.EpochCommitment = r.Hash()
	if err := r.Done(); err != nil {
		return nil, err
	}
	if typ != ClientType {
		return nil, fmt.Errorf("guestlc: client state type %q", typ)
	}
	return info, nil
}

// SubmitMisbehaviour freezes the client given two conflicting signed blocks
// at the same height, each carrying a valid quorum (a guest-chain fork,
// only possible if the host chain itself equivocated, §VI-C).
func (c *Client) SubmitMisbehaviour(a, b *guestblock.SignedBlock) error {
	if a.Block.Height != b.Block.Height {
		return errors.New("guestlc: misbehaviour blocks at different heights")
	}
	if a.Block.Hash() == b.Block.Hash() {
		return errors.New("guestlc: blocks identical")
	}
	if err := a.VerifyQuorum(c.epoch); err != nil {
		return fmt.Errorf("guestlc: first block: %w", err)
	}
	if err := b.VerifyQuorum(c.epoch); err != nil {
		return fmt.Errorf("guestlc: second block: %w", err)
	}
	c.frozen = true
	return nil
}
