// Package tendermint implements a simplified Tendermint-style light client:
// BFT headers finalised by >2/3 of a known validator set, with sequential
// and skipping (1/3-overlap) verification, validator-set rotation, and
// optional update rate limiting (§VI-C). The guest blockchain instantiates
// it to track the Cosmos-like counterparty; header and commit sizes are
// what force the multi-transaction chunked updates the paper measures
// (§V-A, Figs. 4-5).
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
// and a commit entry (u16 set index, timestamp, signature), which is what
// each signature a chunked upload claims adds to the staged update.
const (
	validatorSize   = 32 + 8
	CommitEntrySize = 2 + 8 + 64
)

// Errors returned by the update decoder and the commit check.
var (
	// ErrSetOrder: a validator set not in strictly ascending public-key
	// order, which is the only order NewValidatorSet builds.
	ErrSetOrder = errors.New("tendermint: validator set not in ascending public-key order")
	// ErrCommitIndex: a commit entry that does not name a member of the
	// update's validator set at a position above the previous entry's.
	ErrCommitIndex = errors.New("tendermint: commit entry not at an ascending validator-set index")
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

// seek returns the first position at or after from whose key is not below
// pub, and whether that key is pub. A commit lists its signers in set
// order, so a walk that seeks each entry from the previous one's position
// reads the set once.
func (vs *ValidatorSet) seek(pub cryptoutil.PubKey, from int) (int, bool) {
	i := from
	for i < len(vs.Validators) && vs.Validators[i].PubKey.Compare(pub) < 0 {
		i++
	}
	return i, i < len(vs.Validators) && vs.Validators[i].PubKey == pub
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

// DecodeValidatorSet reads a set written by Encode; a set out of canonical
// order fails with ErrSetOrder.
func DecodeValidatorSet(r *wire.Reader) (*ValidatorSet, error) {
	n := r.Count16(validatorSize)
	vs := &ValidatorSet{Validators: make([]Validator, 0, n)}
	for i := 0; i < n; i++ {
		v := Validator{PubKey: r.PubKey(), Power: r.U64()}
		if i > 0 && vs.Validators[i-1].PubKey.Compare(v.PubKey) >= 0 {
			return nil, fmt.Errorf("tendermint: decode validator set: %w", ErrSetOrder)
		}
		vs.Validators = append(vs.Validators, v)
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("tendermint: decode validator set: %w", err)
	}
	return vs, nil
}

// Marshal returns the set's encoding, which an update's starts with.
func (vs *ValidatorSet) Marshal() []byte {
	w := wire.NewWriterSize(vs.encodedSize())
	vs.Encode(w)
	return w.Bytes()
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
// and the full validator set matching ValSetHash. The commit lists its
// signers in set order.
type Update struct {
	Header *Header
	Commit []CommitSig
	ValSet *ValidatorSet
}

func (u *Update) encodedSize() int {
	return u.Header.encodedSize() + u.ValSet.encodedSize() + 2 + len(u.Commit)*CommitEntrySize
}

// Marshal returns the serialized update, set ‖ header ‖ commit; its length
// is what the relayer must chunk across host transactions. The set leads:
// it does not depend on the height, so a relayer can stage its bytes before
// it picks the header. It comes ahead of the commit, whose entries name
// their signer by set index instead of repeating its public key. An entry
// that is not a member at a position above the previous entry's is written
// as the set size, which the decoder refuses.
func (u *Update) Marshal() []byte {
	w := wire.NewWriterSize(u.encodedSize())
	u.ValSet.Encode(w)
	u.Header.Encode(w)
	w.U16(uint16(len(u.Commit)))
	at := -1
	for _, c := range u.Commit {
		i, ok := u.ValSet.seek(c.PubKey, at+1)
		if !ok {
			i = len(u.ValSet.Validators)
		}
		at = i
		w.U16(uint16(i))
		w.Time(c.Timestamp)
		w.Signature(c.Signature)
	}
	return w.Bytes()
}

// UnmarshalUpdate decodes an update. It resolves each commit entry's index
// against the set as it reads it: an index at or past the set size, or not
// above the previous entry's, fails with ErrCommitIndex.
func UnmarshalUpdate(data []byte) (*Update, error) {
	r := wire.NewReader(data)
	vs, err := DecodeValidatorSet(r)
	if err != nil {
		return nil, err
	}
	h, err := DecodeHeader(r)
	if err != nil {
		return nil, err
	}
	n := r.Count16(CommitEntrySize)
	u := &Update{Header: h, Commit: make([]CommitSig, 0, n), ValSet: vs}
	prev := -1
	for i := 0; i < n; i++ {
		at := int(r.U16())
		if at >= len(vs.Validators) || at <= prev {
			return nil, fmt.Errorf("tendermint: decode update: entry %d names %d after %d of %d: %w", i, at, prev, len(vs.Validators), ErrCommitIndex)
		}
		prev = at
		u.Commit = append(u.Commit, CommitSig{
			PubKey:    vs.Validators[at].PubKey,
			Timestamp: r.Time(),
			Signature: r.Signature(),
		})
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("tendermint: decode update: %w", err)
	}
	return u, nil
}

// SignCommit produces a commit for a header from the given keys, in set
// order (ascending public key) whatever order the keys come in
// (test/simulation helper used by the counterparty chain). The keys sign
// the one vote payload across cryptoutil's workers.
func SignCommit(h *Header, keys []*cryptoutil.PrivKey, ts time.Time) []CommitSig {
	sigs := cryptoutil.SignHashEach(keys, VotePayload(h.Hash(), ts))
	out := make([]CommitSig, len(keys))
	for i, k := range keys {
		out[i] = CommitSig{PubKey: k.Public(), Timestamp: ts, Signature: sigs[i]}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].PubKey.Compare(out[j].PubKey) < 0 })
	return out
}
