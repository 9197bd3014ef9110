// Package guestblock defines the guest blockchain's block, epoch, and
// validator-set types with their canonical encodings and signing payloads.
// It is shared by the Guest Contract (which produces blocks), the
// validators (which sign them), and the guest light client on the
// counterparty chain (which verifies them).
package guestblock

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/wire"
)

// Encoded sizes of the fixed-layout entries: a validator (pubkey, stake),
// a block signature (pubkey, signature), and a block without its optional
// next epoch (heights, time, hashes, epoch index, next-epoch flag).
const (
	validatorSize = 32 + 8
	signatureSize = 32 + 64
	blockSize     = 8 + 8 + 8 + 3*cryptoutil.HashSize + 8 + 1
)

// Validator is one staked guest-blockchain validator (§III-B).
type Validator struct {
	PubKey cryptoutil.PubKey
	Stake  uint64
}

// Epoch is a validator-set era: validators are fixed for the epoch and a
// stake-weighted quorum finalises blocks.
type Epoch struct {
	// Index is the epoch number, starting at 0 for genesis.
	Index uint64
	// Validators is the canonical (pubkey-sorted) validator list.
	Validators []Validator
	// QuorumStake is the stake required to finalise a block
	// (strictly more than 2/3 of total).
	QuorumStake uint64
}

// NewEpoch builds an epoch with canonical ordering and a >2/3 quorum.
func NewEpoch(index uint64, validators []Validator) (*Epoch, error) {
	if len(validators) == 0 {
		return nil, errors.New("guestblock: epoch needs at least one validator")
	}
	vs := append([]Validator(nil), validators...)
	sort.Slice(vs, func(i, j int) bool { return vs[i].PubKey.Compare(vs[j].PubKey) < 0 })
	var total uint64
	for i, v := range vs {
		if v.Stake == 0 {
			return nil, fmt.Errorf("guestblock: validator %s has zero stake", v.PubKey.Short())
		}
		if i > 0 && vs[i-1].PubKey == v.PubKey {
			return nil, fmt.Errorf("guestblock: duplicate validator %s", v.PubKey.Short())
		}
		total += v.Stake
	}
	return &Epoch{
		Index:       index,
		Validators:  vs,
		QuorumStake: total*2/3 + 1,
	}, nil
}

// StakeOf returns the stake of pub, or 0 if pub is not in the epoch.
func (e *Epoch) StakeOf(pub cryptoutil.PubKey) uint64 {
	for _, v := range e.Validators {
		if v.PubKey == pub {
			return v.Stake
		}
	}
	return 0
}

// Has reports whether pub is an epoch validator.
func (e *Epoch) Has(pub cryptoutil.PubKey) bool { return e.StakeOf(pub) > 0 }

func (e *Epoch) encodedSize() int { return 8 + 8 + 2 + len(e.Validators)*validatorSize }

// Encode appends the epoch's canonical encoding.
func (e *Epoch) Encode(w *wire.Writer) {
	w.U64(e.Index)
	w.U64(e.QuorumStake)
	w.U16(uint16(len(e.Validators)))
	for _, v := range e.Validators {
		w.PubKey(v.PubKey)
		w.U64(v.Stake)
	}
}

// DecodeEpoch reads an epoch written by Encode.
func DecodeEpoch(r *wire.Reader) (*Epoch, error) {
	e := &Epoch{
		Index:       r.U64(),
		QuorumStake: r.U64(),
	}
	n := r.Count16(validatorSize)
	e.Validators = make([]Validator, 0, n)
	for i := 0; i < n; i++ {
		e.Validators = append(e.Validators, Validator{PubKey: r.PubKey(), Stake: r.U64()})
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("guestblock: decode epoch: %w", err)
	}
	return e, nil
}

// Commitment returns the hash committing to the epoch contents:
// HashTagged('E', encoding), hashed from one exact-size buffer.
func (e *Epoch) Commitment() cryptoutil.Hash {
	w := wire.NewWriterSize(1 + e.encodedSize())
	w.U8('E')
	e.Encode(w)
	return cryptoutil.HashBytes(w.Bytes())
}

// Block is a guest blockchain block header (Alg. 1). Guest blocks carry no
// transaction list: the state root commits to everything, and the host
// chain orders the underlying operations.
type Block struct {
	// Height is the guest block height (genesis = 1).
	Height uint64
	// HostHeight is the host slot at which the block was generated —
	// this is the "block introspection" data IBC needs (§II).
	HostHeight uint64
	// Time is the host block timestamp at generation.
	Time time.Time
	// PrevHash links to the previous guest block.
	PrevHash cryptoutil.Hash
	// StateRoot is the sealable trie's root commitment.
	StateRoot cryptoutil.Hash
	// EpochIndex identifies the validator set that must finalise this
	// block.
	EpochIndex uint64
	// EpochCommitment commits to that validator set.
	EpochCommitment cryptoutil.Hash
	// NextEpoch is present on the last block of an epoch and carries the
	// full next validator set, letting light clients rotate trust.
	NextEpoch *Epoch
}

func (b *Block) encodedSize() int {
	if b.NextEpoch == nil {
		return blockSize
	}
	return blockSize + b.NextEpoch.encodedSize()
}

// Encode appends the block's canonical encoding.
func (b *Block) Encode(w *wire.Writer) {
	w.U64(b.Height)
	w.U64(b.HostHeight)
	w.Time(b.Time)
	w.Hash(b.PrevHash)
	w.Hash(b.StateRoot)
	w.U64(b.EpochIndex)
	w.Hash(b.EpochCommitment)
	if b.NextEpoch != nil {
		w.U8(1)
		b.NextEpoch.Encode(w)
	} else {
		w.U8(0)
	}
}

// DecodeBlock reads a block written by Encode.
func DecodeBlock(r *wire.Reader) (*Block, error) {
	b := &Block{
		Height:     r.U64(),
		HostHeight: r.U64(),
		Time:       r.Time(),
		PrevHash:   r.Hash(),
		StateRoot:  r.Hash(),
		EpochIndex: r.U64(),
	}
	b.EpochCommitment = r.Hash()
	switch flag := r.U8(); flag {
	case 0:
	case 1:
		next, err := DecodeEpoch(r)
		if err != nil {
			return nil, err
		}
		b.NextEpoch = next
	default:
		return nil, fmt.Errorf("guestblock: decode block: next-epoch flag %d", flag)
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("guestblock: decode block: %w", err)
	}
	return b, nil
}

// Hash returns the block hash: HashTagged('B', encoding), hashed from one
// exact-size buffer.
func (b *Block) Hash() cryptoutil.Hash {
	w := wire.NewWriterSize(1 + b.encodedSize())
	w.U8('B')
	b.Encode(w)
	return cryptoutil.HashBytes(w.Bytes())
}

// SigningPayload returns the digest validators sign. It is domain-separated
// from the block hash so signatures cannot be confused with other uses.
func (b *Block) SigningPayload() cryptoutil.Hash {
	return SigningPayloadForHash(b.Hash())
}

// SigningPayloadForHash reconstructs the signing payload from a block hash;
// fishermen use this to check signatures on claimed blocks (§III-C). It is
// HashTagged('S', hash), hashed from a stack array.
func SigningPayloadForHash(blockHash cryptoutil.Hash) cryptoutil.Hash {
	var buf [1 + cryptoutil.HashSize]byte
	buf[0] = 'S'
	copy(buf[1:], blockHash[:])
	return cryptoutil.HashBytes(buf[:])
}

// BlockSignature is one validator's finalisation vote.
type BlockSignature struct {
	PubKey    cryptoutil.PubKey
	Signature cryptoutil.Signature
}

// SignedBlock is a finalised block together with a signature set reaching
// quorum — the guest light client update format (Alg. 2 send_block).
type SignedBlock struct {
	Block      *Block
	Signatures []BlockSignature
}

// Encode appends the signed block's canonical encoding.
func (sb *SignedBlock) Encode(w *wire.Writer) {
	sb.Block.Encode(w)
	w.U16(uint16(len(sb.Signatures)))
	for _, s := range sb.Signatures {
		w.PubKey(s.PubKey)
		w.Signature(s.Signature)
	}
}

func (sb *SignedBlock) encodedSize() int {
	return sb.Block.encodedSize() + 2 + len(sb.Signatures)*signatureSize
}

// Marshal returns the serialized signed block.
func (sb *SignedBlock) Marshal() []byte {
	w := wire.NewWriterSize(sb.encodedSize())
	sb.Encode(w)
	return w.Bytes()
}

// UnmarshalSignedBlock decodes a signed block.
func UnmarshalSignedBlock(data []byte) (*SignedBlock, error) {
	r := wire.NewReader(data)
	b, err := DecodeBlock(r)
	if err != nil {
		return nil, err
	}
	n := r.Count16(signatureSize)
	sb := &SignedBlock{Block: b, Signatures: make([]BlockSignature, 0, n)}
	for i := 0; i < n; i++ {
		sb.Signatures = append(sb.Signatures, BlockSignature{
			PubKey:    r.PubKey(),
			Signature: r.Signature(),
		})
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("guestblock: decode signed block: %w", err)
	}
	return sb, nil
}

// VerifyQuorum checks that the signatures are valid votes from distinct
// epoch validators whose stake reaches the epoch quorum. Signature checks
// run through the shared batch verifier (worker pool + verification cache),
// so a quorum the relayer, light client, and fishermen each inspect is only
// paid for once.
func (sb *SignedBlock) VerifyQuorum(epoch *Epoch) error {
	return sb.VerifyQuorumWith(epoch, cryptoutil.DefaultBatchVerifier())
}

// VerifyQuorumWith is VerifyQuorum with an explicit verifier; benchmarks
// and tests use it to compare sequential, parallel, and cached paths.
func (sb *SignedBlock) VerifyQuorumWith(epoch *Epoch, verifier *cryptoutil.BatchVerifier) error {
	if sb.Block.EpochIndex != epoch.Index {
		return fmt.Errorf("guestblock: block epoch %d, verifying with epoch %d", sb.Block.EpochIndex, epoch.Index)
	}
	if sb.Block.EpochCommitment != epoch.Commitment() {
		return errors.New("guestblock: epoch commitment mismatch")
	}
	// Cheap structural checks first: duplicates, membership, and stake
	// arithmetic cost nothing next to Ed25519, and rejecting on them avoids
	// burning pool time on a malformed update.
	payload := sb.Block.SigningPayload()
	seen := make(map[cryptoutil.PubKey]bool, len(sb.Signatures))
	var stake uint64
	tasks := make([]cryptoutil.VerifyTask, 0, len(sb.Signatures))
	for _, s := range sb.Signatures {
		if seen[s.PubKey] {
			return fmt.Errorf("guestblock: duplicate signature from %s", s.PubKey.Short())
		}
		seen[s.PubKey] = true
		vstake := epoch.StakeOf(s.PubKey)
		if vstake == 0 {
			return fmt.Errorf("guestblock: signer %s not in epoch", s.PubKey.Short())
		}
		stake += vstake
		tasks = append(tasks, cryptoutil.VerifyTask{Pub: s.PubKey, Msg: payload[:], Sig: s.Signature})
	}
	if stake < epoch.QuorumStake {
		return fmt.Errorf("guestblock: stake %d below quorum %d", stake, epoch.QuorumStake)
	}
	for i, ok := range verifier.VerifyEach(tasks) {
		if !ok {
			return fmt.Errorf("guestblock: invalid signature from %s", sb.Signatures[i].PubKey.Short())
		}
	}
	return nil
}
