package trie

import (
	"errors"

	"repro/internal/cryptoutil"
)

// View is a read-only window onto one retained version of the trie,
// obtained from Trie.At. It holds the version's frozen root reference by
// value, so it keeps working — and keeps serving byte-identical proofs —
// no matter how far the head has moved on, for as long as the version is
// retained.
//
// Views never mutate shared state, and the single writer only touches
// nodes created after the version was frozen, so Views may be read from
// any goroutine concurrently with head mutations.
type View struct {
	version Version
	root    ref
	rs      resolver
}

// Version returns the snapshot handle this view reads.
func (v *View) Version() Version { return v.version }

// Root returns the root commitment of the frozen version.
func (v *View) Root() cryptoutil.Hash { return v.root.hash }

// Get returns the value hash stored under key in this version. Sealing
// that happened at the head after the snapshot is invisible here: the
// frozen nodes still carry their values.
func (v *View) Get(key [KeySize]byte) (cryptoutil.Hash, error) {
	return lookupHash(v.rs, v.root, key)
}

// Value returns the value bytes stored under key in this version, as
// Trie.Value does.
func (v *View) Value(key [KeySize]byte) ([]byte, error) {
	return lookupValue(v.rs, v.root, key)
}

// Has reports whether key is present (and was unsealed) in this version.
func (v *View) Has(key [KeySize]byte) (bool, error) {
	_, err := v.Get(key)
	switch {
	case err == nil:
		return true, nil
	case errors.Is(err, ErrNotFound):
		return false, nil
	default:
		return false, err
	}
}

// Prove constructs a membership or non-membership proof for key against
// this version's root.
func (v *View) Prove(key [KeySize]byte) (*Proof, error) {
	return proveRef(v.rs, v.root, key)
}

// Keys returns all live keys in this version, in depth-first order.
// Intended for tests and debugging.
func (v *View) Keys() [][KeySize]byte {
	return keysFrom(v.rs, v.root)
}
