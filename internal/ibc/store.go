package ibc

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/cryptoutil"
	"repro/internal/nodestore"
	"repro/internal/trie"
)

// ErrUnknownVersion is returned when reading a version that was never
// committed or has been released.
var ErrUnknownVersion = trie.ErrUnknownVersion

// Version identifies a committed, retained store snapshot.
type Version = trie.Version

// Store is the provable storage an IBC handler writes through: a sealable
// Merkle trie whose leaves commit to H(value) and hold the value bytes
// (peers verify values against proofs of their hashes, exactly the
// "stores its commitment" model of Alg. 1).
//
// The store is versioned by the trie alone: CommitAt freezes the current
// contents as an O(1) version handle for a chain height, and At and
// AtHeight open a read-only view of any retained version. Path copying
// keeps each version's leaves, values included, unchanged while the head
// moves on, and the provable window (history.go) releases the versions
// whose heights left it, so the nodes only they reached are reused.
// Mutations must come from a single writer (the account model already
// forbids concurrent writers), but ReadOnlyStore views may be used from
// other goroutines concurrently with head writes.
type Store struct {
	// mu orders commits, releases, evictions and syncs with the backend
	// and guards flushErr and heights. The trie guards its own version
	// table, so At and the views it opens need no lock here.
	mu   sync.Mutex
	trie *trie.Trie

	// heights is the provable window, oldest first (history.go), and the
	// eviction cursor has passed its first evicted entries. first is the
	// lowest height ever indexed, which tells a pruned height from an
	// unknown one. provable and hot, the writer's, bound the window in
	// heights (0: no bound).
	heights       []heightVersion
	evicted       int
	first         uint64
	provable, hot int

	// backend is the optional persistence layer (see persist.go): nil
	// keeps the store purely in-heap with byte-identical behaviour.
	// flushErr latches the first background flush failure until
	// SyncBackend surfaces it. recoveredHeight is the chain height of a
	// recovered head root, 0 for fresh stores.
	backend         nodestore.Store
	flushErr        error
	recoveredHeight uint64
}

// NewStore returns an empty provable store. Trie options (such as the
// fixed-capacity arena modelling the 10 MiB account) pass through.
func NewStore(opts ...trie.Option) *Store {
	return &Store{trie: trie.New(opts...)}
}

// Root returns the current commitment root.
func (s *Store) Root() cryptoutil.Hash { return s.trie.Root() }

// Trie exposes the underlying sealable trie (for storage accounting).
func (s *Store) Trie() *trie.Trie { return s.trie }

// At returns a read-only view of a committed, retained version.
func (s *Store) At(v Version) (*ReadOnlyStore, error) {
	view, err := s.trie.At(v)
	if err != nil {
		return nil, fmt.Errorf("ibc: at version %d: %w", v, err)
	}
	return &ReadOnlyStore{view: view}, nil
}

// RetainedVersions returns how many committed versions are currently held.
func (s *Store) RetainedVersions() int { return s.trie.RetainedVersions() }

// Set stores value under the ICS-24 path.
func (s *Store) Set(path string, value []byte) error {
	if len(value) == 0 {
		return fmt.Errorf("ibc: empty value for %q", path)
	}
	if err := s.trie.Put(PathToKey(path), value); err != nil {
		return fmt.Errorf("ibc: set %q: %w", path, err)
	}
	return nil
}

// Get returns the value bytes stored under path. The caller must not
// modify them.
func (s *Store) Get(path string) ([]byte, error) { return s.read().get(path) }

// Has reports whether path holds a live value.
func (s *Store) Has(path string) (bool, error) { return s.read().has(path) }

// IsSealed reports whether the path was sealed.
func (s *Store) IsSealed(path string) bool {
	_, err := s.trie.Get(PathToKey(path))
	return errors.Is(err, trie.ErrSealed)
}

// Delete removes path (used for packet commitments cleared on ack).
// Retained versions keep their own leaf, so they still read the old bytes.
func (s *Store) Delete(path string) error {
	if err := s.trie.Delete(PathToKey(path)); err != nil {
		return fmt.Errorf("ibc: delete %q: %w", path, err)
	}
	return nil
}

// Seal permanently retires path, reclaiming its storage while keeping the
// root commitment intact (§III-A). Used for delivered packet receipts. As
// with Delete, retained versions keep serving the pre-seal value — sealing
// at head must not invalidate historical proofs.
func (s *Store) Seal(path string) error {
	if err := s.trie.Seal(PathToKey(path)); err != nil {
		return fmt.Errorf("ibc: seal %q: %w", path, err)
	}
	return nil
}

// ProveMembership returns (value, serialized proof) for a present path.
func (s *Store) ProveMembership(path string) ([]byte, []byte, error) {
	return s.read().proveMembership(path)
}

// ProveNonMembership returns a serialized absence proof for path.
func (s *Store) ProveNonMembership(path string) ([]byte, error) { return s.read().proveAbsence(path) }

// read is the head's read path: the live trie.
func (s *Store) read() reader { return reader{trie: s.trie} }

// ReadOnlyStore is a read-only view of one committed store version,
// obtained from Store.At or Store.AtHeight. It serves reads and proofs
// against the frozen root for as long as the version stays retained, and is
// safe to use concurrently with head writes: once its version is evicted it
// reads through the backend with byte-identical proofs, and once released
// it fails with ErrUnknownVersion (trie.View states the contract).
type ReadOnlyStore struct {
	view *trie.View
}

// Version returns the committed version this view reads.
func (r *ReadOnlyStore) Version() Version { return r.view.Version() }

// Root returns the frozen commitment root.
func (r *ReadOnlyStore) Root() cryptoutil.Hash { return r.view.Root() }

// Get returns the value bytes stored under path at this version.
func (r *ReadOnlyStore) Get(path string) ([]byte, error) { return r.read().get(path) }

// Has reports whether path held a live value at this version.
func (r *ReadOnlyStore) Has(path string) (bool, error) { return r.read().has(path) }

// ProveMembership returns (value, serialized proof) for a path present at
// this version. Proofs are byte-identical to the ones the head produced
// while this version was current.
func (r *ReadOnlyStore) ProveMembership(path string) ([]byte, []byte, error) {
	return r.read().proveMembership(path)
}

// ProveNonMembership returns a serialized absence proof for path at this
// version.
func (r *ReadOnlyStore) ProveNonMembership(path string) ([]byte, error) {
	return r.read().proveAbsence(path)
}

func (r *ReadOnlyStore) read() reader {
	return reader{trie: r.view, version: r.view.Version()}
}

// trieReader is what the head trie and a retained version's view share.
type trieReader interface {
	Value(key [trie.KeySize]byte) ([]byte, error)
	Has(key [trie.KeySize]byte) (bool, error)
	Prove(key [trie.KeySize]byte) (*trie.Proof, error)
}

// reader is the one read path of the head and of every retained version:
// the trie it reads values and proofs from, and the version it is (0 for
// the head), named in its errors.
type reader struct {
	trie    trieReader
	version Version
}

var (
	errAbsent  = errors.New("path is absent")
	errPresent = errors.New("path is present")
)

// fail wraps err as the failure of op on path, naming the version read.
func (r reader) fail(op, path string, err error) error {
	if r.version == 0 {
		return fmt.Errorf("ibc: %s %q: %w", op, path, err)
	}
	return fmt.Errorf("ibc: %s %q at version %d: %w", op, path, r.version, err)
}

func (r reader) get(path string) ([]byte, error) {
	v, err := r.trie.Value(PathToKey(path))
	if err != nil {
		return nil, r.fail("get", path, err)
	}
	return v, nil
}

func (r reader) has(path string) (bool, error) {
	ok, err := r.trie.Has(PathToKey(path))
	if err != nil {
		return false, r.fail("has", path, err)
	}
	return ok, nil
}

func (r reader) proveMembership(path string) ([]byte, []byte, error) {
	raw, err := r.prove(path, true)
	if err != nil {
		return nil, nil, r.fail("prove", path, err)
	}
	v, err := r.trie.Value(PathToKey(path))
	if err != nil {
		return nil, nil, r.fail("prove", path, err)
	}
	return v, raw, nil
}

func (r reader) proveAbsence(path string) ([]byte, error) {
	raw, err := r.prove(path, false)
	if err != nil {
		return nil, r.fail("prove absence", path, err)
	}
	return raw, nil
}

// prove returns path's encoded proof, which must show membership iff member.
func (r reader) prove(path string, member bool) ([]byte, error) {
	proof, err := r.trie.Prove(PathToKey(path))
	if err != nil {
		return nil, err
	}
	if proof.Membership() != member {
		if member {
			return nil, errAbsent
		}
		return nil, errPresent
	}
	return *proof, nil
}

// VerifyStoredMembership verifies a serialized proof that path holds value
// under root. It is the verification half used by light clients.
func VerifyStoredMembership(root cryptoutil.Hash, path string, value []byte, rawProof []byte) error {
	proof := trie.Proof(rawProof)
	if err := trie.VerifyMembership(root, PathToKey(path), cryptoutil.HashBytes(value), &proof); err != nil {
		return fmt.Errorf("%w: %v", ErrProofVerification, err)
	}
	return nil
}

// VerifyStoredNonMembership verifies a serialized absence proof for path.
func VerifyStoredNonMembership(root cryptoutil.Hash, path string, rawProof []byte) error {
	proof := trie.Proof(rawProof)
	if err := trie.VerifyNonMembership(root, PathToKey(path), &proof); err != nil {
		return fmt.Errorf("%w: %v", ErrProofVerification, err)
	}
	return nil
}
