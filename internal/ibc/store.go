package ibc

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/cryptoutil"
	"repro/internal/nodestore"
	"repro/internal/trie"
)

// Versioned store errors.
var (
	// ErrUnknownVersion is returned when reading a version that was never
	// committed or has been released.
	ErrUnknownVersion = trie.ErrUnknownVersion
	// ErrValueMismatch is returned by Get when the side-table value no
	// longer hashes to the trie leaf commitment — a store/trie desync that
	// should be impossible and must surface loudly rather than produce
	// unprovable values.
	ErrValueMismatch = errors.New("ibc: value does not match trie commitment")
)

// Version identifies a committed, retained store snapshot.
type Version = trie.Version

// valueRev is one generation of a path's value history: the bytes written
// while `ver` was the pending version, or a tombstone (nil val) recording a
// Delete or Seal. Reads at version v resolve to the last entry with
// ver <= v, so retained versions keep seeing the bytes they committed while
// the head moves on — the value-table analogue of the trie's path copying.
type valueRev struct {
	ver Version
	val []byte
}

// Store is the provable storage an IBC handler writes through: a sealable
// Merkle trie holding value commitments, plus a versioned side table with
// the full value bytes (the trie commits to H(value); peers verify values
// against proofs of their hashes, exactly the "stores its commitment" model
// of Alg. 1).
//
// The store is versioned: Commit freezes the current contents as an O(1)
// version handle and At opens a read-only view of any retained version.
// Mutations must come from a single writer (the account model already
// forbids concurrent writers), but ReadOnlyStore views may be used from
// other goroutines concurrently with head writes.
type Store struct {
	mu     sync.RWMutex
	trie   *trie.Trie
	values map[string][]valueRev

	// head is the version id the next Commit will return; writes are
	// stamped with it. retained tracks live version handles. writeLog
	// remembers which paths were written in each pending generation so
	// Release can trim value histories in amortised O(writes) instead of
	// scanning the whole table.
	head     Version
	retained map[Version]struct{}
	writeLog map[Version][]string

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
	return &Store{
		trie:     trie.New(opts...),
		values:   make(map[string][]valueRev),
		head:     1,
		retained: make(map[Version]struct{}),
		writeLog: make(map[Version][]string),
	}
}

// Root returns the current commitment root.
func (s *Store) Root() cryptoutil.Hash { return s.trie.Root() }

// Trie exposes the underlying sealable trie (for storage accounting).
func (s *Store) Trie() *trie.Trie { return s.trie }

// Commit freezes the current contents as a new retained version and returns
// its handle. O(1) for the in-heap store: nothing is copied — the trie
// snapshots structurally and the value side-table entries stamped with this
// version simply become immutable history. With a backend attached the
// version's delta is additionally appended to the log (see CommitAt).
func (s *Store) Commit() Version { return s.CommitAt(0) }

// At returns a read-only view of a committed, retained version.
func (s *Store) At(v Version) (*ReadOnlyStore, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if _, ok := s.retained[v]; !ok {
		return nil, fmt.Errorf("ibc: at version %d: %w", v, ErrUnknownVersion)
	}
	view, err := s.trie.At(v)
	if err != nil {
		return nil, fmt.Errorf("ibc: at version %d: %w", v, err)
	}
	return &ReadOnlyStore{store: s, view: view}, nil
}

// Release drops a retained version, reclaiming value history (and letting
// the trie nodes reachable only from it be collected). Releasing an unknown
// or already-released version is a no-op.
func (s *Store) Release(v Version) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.retained[v]; !ok {
		return
	}
	delete(s.retained, v)
	s.trie.Release(v)
	s.pruneValuesLocked()
	if s.backend != nil {
		if err := s.backend.ReleaseVersion(uint64(v)); err != nil && s.flushErr == nil {
			s.flushErr = err
		}
	}
}

// RetainedVersions returns how many committed versions are currently held.
func (s *Store) RetainedVersions() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.retained)
}

// pruneValuesLocked trims value history no retained version can still read.
// cutoff is the oldest version a reader may request; for each generation at
// or below it, every logged path can drop history entries superseded at or
// before the cutoff. Called with mu held.
func (s *Store) pruneValuesLocked() {
	cutoff := s.head
	for v := range s.retained {
		if v < cutoff {
			cutoff = v
		}
	}
	for gen, paths := range s.writeLog {
		if gen > cutoff {
			continue
		}
		for _, p := range paths {
			s.trimHistoryLocked(p, cutoff)
		}
		delete(s.writeLog, gen)
	}
}

// trimHistoryLocked drops leading history entries for path that are
// shadowed at every readable version (>= cutoff), and removes the path
// entirely once only a dead tombstone remains.
func (s *Store) trimHistoryLocked(path string, cutoff Version) {
	h, ok := s.values[path]
	if !ok {
		return
	}
	i := 0
	for i+1 < len(h) && h[i+1].ver <= cutoff {
		i++
	}
	h = h[i:]
	if len(h) == 1 && h[0].val == nil && h[0].ver <= cutoff {
		delete(s.values, path)
		return
	}
	s.values[path] = h
}

// appendValueLocked records a new generation of path's value (nil marks a
// tombstone). Writes within the same pending version coalesce: only the
// last value before Commit is observable. Called with mu held.
func (s *Store) appendValueLocked(path string, val []byte) {
	h := s.values[path]
	if n := len(h); n > 0 && h[n-1].ver == s.head {
		h[n-1].val = val
		return
	}
	s.values[path] = append(h, valueRev{ver: s.head, val: val})
	s.writeLog[s.head] = append(s.writeLog[s.head], path)
}

// valueAt resolves path's bytes as of version v (0 reads the head's
// pending version). A tombstone or missing history reads as absent. When
// the in-heap history has no entry at or below v — which happens for
// recovered stores and for generations evicted to the backend — the
// backend's durable value log answers instead.
func (s *Store) valueAt(path string, v Version) ([]byte, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if v == 0 {
		v = s.head
	}
	h := s.values[path]
	for i := len(h) - 1; i >= 0; i-- {
		if h[i].ver <= v {
			return h[i].val, h[i].val != nil
		}
	}
	if s.backend != nil {
		if val, ok, err := s.backend.ValueAt(path, uint64(v)); err == nil && ok {
			return val, true
		}
	}
	return nil, false
}

// Set stores value under the ICS-24 path.
func (s *Store) Set(path string, value []byte) error {
	if len(value) == 0 {
		return fmt.Errorf("ibc: empty value for %q", path)
	}
	if err := s.trie.Set(PathToKey(path), cryptoutil.HashBytes(value)); err != nil {
		return fmt.Errorf("ibc: set %q: %w", path, err)
	}
	s.mu.Lock()
	s.appendValueLocked(path, append([]byte(nil), value...))
	s.mu.Unlock()
	return nil
}

// Get returns the value bytes stored under path, after checking that they
// still hash to the trie's leaf commitment (desync → ErrValueMismatch).
func (s *Store) Get(path string) ([]byte, error) { return s.read().get(path) }

// Has reports whether path holds a live value.
func (s *Store) Has(path string) (bool, error) { return s.read().has(path) }

// IsSealed reports whether the path was sealed.
func (s *Store) IsSealed(path string) bool {
	_, err := s.trie.Get(PathToKey(path))
	return errors.Is(err, trie.ErrSealed)
}

// Delete removes path (used for packet commitments cleared on ack). The
// value history keeps a tombstone so retained versions still read the old
// bytes.
func (s *Store) Delete(path string) error {
	if err := s.trie.Delete(PathToKey(path)); err != nil {
		return fmt.Errorf("ibc: delete %q: %w", path, err)
	}
	s.mu.Lock()
	s.appendValueLocked(path, nil)
	s.mu.Unlock()
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
	s.mu.Lock()
	s.appendValueLocked(path, nil)
	s.mu.Unlock()
	return nil
}

// ProveMembership returns (value, serialized proof) for a present path.
func (s *Store) ProveMembership(path string) ([]byte, []byte, error) {
	return s.read().proveMembership(path)
}

// ProveNonMembership returns a serialized absence proof for path.
func (s *Store) ProveNonMembership(path string) ([]byte, error) { return s.read().proveAbsence(path) }

// read is the head's read path: the live trie and the pending version.
func (s *Store) read() reader { return reader{store: s, trie: s.trie} }

// ReadOnlyStore is a read-only view of one committed store version,
// obtained from Store.At. It serves reads and proofs against the frozen
// root for as long as the version stays retained, and is safe to use
// concurrently with head writes.
type ReadOnlyStore struct {
	store *Store
	view  *trie.View
}

// Version returns the committed version this view reads.
func (r *ReadOnlyStore) Version() Version { return r.view.Version() }

// Root returns the frozen commitment root.
func (r *ReadOnlyStore) Root() cryptoutil.Hash { return r.view.Root() }

// Get returns the value bytes stored under path at this version, with the
// same trie-commitment integrity check as the head's Get.
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
	return reader{store: r.store, trie: r.view, version: r.view.Version()}
}

// trieReader is what the head trie and a retained version's view share.
type trieReader interface {
	Get(key [trie.KeySize]byte) (cryptoutil.Hash, error)
	Has(key [trie.KeySize]byte) (bool, error)
	Prove(key [trie.KeySize]byte) (*trie.Proof, error)
}

// reader is the one read path of the head and of every retained version:
// the trie it reads commitments and proofs from, and the version whose
// value bytes it serves (0 for the head's pending version).
type reader struct {
	store   *Store
	trie    trieReader
	version Version
}

var (
	errOutOfSync = errors.New("value table out of sync")
	errAbsent    = errors.New("path is absent")
	errPresent   = errors.New("path is present")
)

// fail wraps err as the failure of op on path, naming the version read.
func (r reader) fail(op, path string, err error) error {
	if r.version == 0 {
		return fmt.Errorf("ibc: %s %q: %w", op, path, err)
	}
	return fmt.Errorf("ibc: %s %q at version %d: %w", op, path, r.version, err)
}

// value returns path's bytes at the version read.
func (r reader) value(path string) ([]byte, error) {
	if val, ok := r.store.valueAt(path, r.version); ok {
		return val, nil
	}
	return nil, errOutOfSync
}

func (r reader) get(path string) ([]byte, error) {
	h, err := r.trie.Get(PathToKey(path))
	if err != nil {
		return nil, r.fail("get", path, err)
	}
	v, err := r.value(path)
	if err == nil && cryptoutil.HashBytes(v) != h {
		err = ErrValueMismatch
	}
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
	v, err := r.value(path)
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
