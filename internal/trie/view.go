package trie

import (
	"repro/internal/cryptoutil"
)

// View is a read-only window onto one retained version of the trie,
// obtained from Trie.At. It keeps working — and keeps serving
// byte-identical proofs — no matter how far the head has moved on, for as
// long as the version is retained.
//
// Views may be read from any goroutine concurrently with head mutations.
// The contract, when the writer reclaims cells while a View is open:
//
//   - The writer never changes a cell a retained version reaches: a
//     mutation path-copies it first, and only a cell no retained root
//     reaches goes back on the free list for a later write to reuse.
//   - Each read looks its version up afresh under the trie's read lock and
//     walks the page tables the writer last published. EvictVersion and
//     Release take the write lock, so they free the version's cells only
//     between reads, never during one.
//   - After EvictVersion, a read finds the version's root evicted and
//     faults its nodes in from the NodeSource, decoded into cells of the
//     reader's own: the same keys, values and byte-identical proofs.
//   - After Release, every read fails with ErrUnknownVersion. It never
//     reads a cell the head may have reused.
type View struct {
	t       *Trie
	version Version
	root    cryptoutil.Hash
}

// Version returns the snapshot handle this view reads.
func (v *View) Version() Version { return v.version }

// Root returns the root commitment of the frozen version.
func (v *View) Root() cryptoutil.Hash { return v.root }

// open takes the trie's read lock and returns the version's resolver and
// root slot; the caller releases the lock with close once it has read.
// A released version fails with ErrUnknownVersion, holding no lock.
func (v *View) open() (resolver, slot, error) {
	v.t.mu.RLock()
	r, ok := v.t.versions[v.version]
	if !ok {
		v.t.mu.RUnlock()
		return resolver{}, slot{}, unknownVersion(v.version)
	}
	return v.t.published(), r, nil
}

func (v *View) close() { v.t.mu.RUnlock() }

// Get returns the value hash stored under key in this version. Sealing
// that happened at the head after the snapshot is invisible here: the
// frozen cells still carry their values.
func (v *View) Get(key [KeySize]byte) (cryptoutil.Hash, error) {
	rs, root, err := v.open()
	if err != nil {
		return cryptoutil.ZeroHash, err
	}
	defer v.close()
	return lookupHash(rs, root, key)
}

// Value returns the value bytes stored under key in this version, as
// Trie.Value does.
func (v *View) Value(key [KeySize]byte) ([]byte, error) {
	rs, root, err := v.open()
	if err != nil {
		return nil, err
	}
	defer v.close()
	return lookupValue(rs, root, key)
}

// Has reports whether key is present (and was unsealed) in this version.
func (v *View) Has(key [KeySize]byte) (bool, error) {
	return present(v.Get(key))
}

// Prove constructs a membership or non-membership proof for key against
// this version's root.
func (v *View) Prove(key [KeySize]byte) (*Proof, error) {
	rs, root, err := v.open()
	if err != nil {
		return nil, err
	}
	defer v.close()
	return proveRef(rs, root, key)
}
