// Package tendermint implements a simplified Tendermint-style light client:
// BFT headers finalised by >2/3 of a known validator set, with sequential
// and skipping (1/3-overlap) verification, validator-set rotation, freezing
// on misbehaviour, and optional update rate limiting (§VI-C). The guest
// blockchain instantiates it to track the Cosmos-like counterparty; header
// and commit sizes are what force the multi-transaction chunked updates the
// paper measures (§V-A, Figs. 4-5).
package tendermint

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/wire"
)

// Validator is a counterparty chain validator.
type Validator struct {
	PubKey cryptoutil.PubKey
	Power  uint64
}

// Encoded sizes of the fixed-layout entries: a validator (pubkey, power)
// and a commit signature (pubkey, timestamp, signature).
const (
	validatorSize = 32 + 8
	commitSigSize = 32 + 8 + 64
)

// ValidatorSet is a canonical (pubkey-sorted) validator set.
type ValidatorSet struct {
	Validators []Validator
}

// NewValidatorSet sorts validators into canonical order.
func NewValidatorSet(vals []Validator) (*ValidatorSet, error) {
	if len(vals) == 0 {
		return nil, errors.New("tendermint: empty validator set")
	}
	vs := append([]Validator(nil), vals...)
	sort.Slice(vs, func(i, j int) bool { return vs[i].PubKey.Compare(vs[j].PubKey) < 0 })
	for i := 1; i < len(vs); i++ {
		if vs[i-1].PubKey == vs[i].PubKey {
			return nil, fmt.Errorf("tendermint: duplicate validator %s", vs[i].PubKey.Short())
		}
	}
	return &ValidatorSet{Validators: vs}, nil
}

// TotalPower returns the sum of voting powers.
func (vs *ValidatorSet) TotalPower() uint64 {
	var total uint64
	for _, v := range vs.Validators {
		total += v.Power
	}
	return total
}

// PowerOf returns pub's voting power (0 if absent).
func (vs *ValidatorSet) PowerOf(pub cryptoutil.PubKey) uint64 {
	for _, v := range vs.Validators {
		if v.PubKey == pub {
			return v.Power
		}
	}
	return 0
}

func (vs *ValidatorSet) encodedSize() int { return 2 + len(vs.Validators)*validatorSize }

// Encode appends the canonical encoding.
func (vs *ValidatorSet) Encode(w *wire.Writer) {
	w.U16(uint16(len(vs.Validators)))
	for _, v := range vs.Validators {
		w.PubKey(v.PubKey)
		w.U64(v.Power)
	}
}

// DecodeValidatorSet reads a set written by Encode.
func DecodeValidatorSet(r *wire.Reader) (*ValidatorSet, error) {
	n := r.Count16(validatorSize)
	vs := &ValidatorSet{Validators: make([]Validator, 0, n)}
	for i := 0; i < n; i++ {
		vs.Validators = append(vs.Validators, Validator{PubKey: r.PubKey(), Power: r.U64()})
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("tendermint: decode validator set: %w", err)
	}
	return vs, nil
}

// Hash returns the set's commitment: HashTagged('v', encoding), hashed
// from one exact-size buffer.
func (vs *ValidatorSet) Hash() cryptoutil.Hash {
	w := wire.NewWriterSize(1 + vs.encodedSize())
	w.U8('v')
	vs.Encode(w)
	return cryptoutil.HashBytes(w.Bytes())
}

// Header is a counterparty block header.
type Header struct {
	ChainID        string
	Height         uint64
	Time           time.Time
	AppRoot        cryptoutil.Hash // IBC provable-store root
	ValSetHash     cryptoutil.Hash
	NextValSetHash cryptoutil.Hash
}

func (h *Header) encodedSize() int { return 2 + len(h.ChainID) + 8 + 8 + 3*cryptoutil.HashSize }

// Encode appends the canonical encoding.
func (h *Header) Encode(w *wire.Writer) {
	w.String16(h.ChainID)
	w.U64(h.Height)
	w.Time(h.Time)
	w.Hash(h.AppRoot)
	w.Hash(h.ValSetHash)
	w.Hash(h.NextValSetHash)
}

// DecodeHeader reads a header written by Encode.
func DecodeHeader(r *wire.Reader) (*Header, error) {
	h := &Header{
		ChainID: r.String16(),
		Height:  r.U64(),
		Time:    r.Time(),
	}
	h.AppRoot = r.Hash()
	h.ValSetHash = r.Hash()
	h.NextValSetHash = r.Hash()
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("tendermint: decode header: %w", err)
	}
	return h, nil
}

// Hash returns the header hash: HashTagged('h', encoding), hashed from
// one exact-size buffer.
func (h *Header) Hash() cryptoutil.Hash {
	w := wire.NewWriterSize(1 + h.encodedSize())
	w.U8('h')
	h.Encode(w)
	return cryptoutil.HashBytes(w.Bytes())
}

// CommitSig is one validator's precommit on a header. Each signer signs
// (header hash, its own timestamp), as in Tendermint's per-vote timestamps
// (the median defines BFT time, reference [38]).
type CommitSig struct {
	PubKey    cryptoutil.PubKey
	Timestamp time.Time
	Signature cryptoutil.Signature
}

// VotePayload is the digest a validator signs for a header hash and vote
// timestamp: HashTagged('V', hash‖time), hashed from a stack array.
func VotePayload(headerHash cryptoutil.Hash, ts time.Time) cryptoutil.Hash {
	var buf [1 + cryptoutil.HashSize + 8]byte
	buf[0] = 'V'
	copy(buf[1:], headerHash[:])
	binary.BigEndian.PutUint64(buf[1+cryptoutil.HashSize:], wire.TimeNanos(ts))
	return cryptoutil.HashBytes(buf[:])
}

// Update is a light-client update: a header, the commit that finalises it,
// and the full validator set matching ValSetHash.
type Update struct {
	Header *Header
	Commit []CommitSig
	ValSet *ValidatorSet
}

func (u *Update) encodedSize() int {
	return u.Header.encodedSize() + 2 + len(u.Commit)*commitSigSize + u.ValSet.encodedSize()
}

// Marshal returns the serialized update; its length is what the relayer
// must chunk across host transactions.
func (u *Update) Marshal() []byte {
	w := wire.NewWriterSize(u.encodedSize())
	u.Header.Encode(w)
	w.U16(uint16(len(u.Commit)))
	for _, c := range u.Commit {
		w.PubKey(c.PubKey)
		w.Time(c.Timestamp)
		w.Signature(c.Signature)
	}
	u.ValSet.Encode(w)
	return w.Bytes()
}

// UnmarshalUpdate decodes an update.
func UnmarshalUpdate(data []byte) (*Update, error) {
	r := wire.NewReader(data)
	h, err := DecodeHeader(r)
	if err != nil {
		return nil, err
	}
	n := r.Count16(commitSigSize)
	u := &Update{Header: h, Commit: make([]CommitSig, 0, n)}
	for i := 0; i < n; i++ {
		u.Commit = append(u.Commit, CommitSig{
			PubKey:    r.PubKey(),
			Timestamp: r.Time(),
			Signature: r.Signature(),
		})
	}
	vs, err := DecodeValidatorSet(r)
	if err != nil {
		return nil, err
	}
	u.ValSet = vs
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("tendermint: decode update: %w", err)
	}
	return u, nil
}

// SignCommit produces a full commit for a header from the given keys
// (test/simulation helper used by the counterparty chain).
func SignCommit(h *Header, keys []*cryptoutil.PrivKey, ts time.Time) []CommitSig {
	payload := VotePayload(h.Hash(), ts)
	out := make([]CommitSig, 0, len(keys))
	for _, k := range keys {
		out = append(out, CommitSig{
			PubKey:    k.Public(),
			Timestamp: ts,
			Signature: k.SignHash(payload),
		})
	}
	return out
}
