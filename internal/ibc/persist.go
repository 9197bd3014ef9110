package ibc

import (
	"fmt"

	"repro/internal/nodestore"
	"repro/internal/trie"
)

// Persistence integration: an optional nodestore backend behind the store.
//
// With a backend attached, every CommitAt flushes the delta — new trie nodes
// in post-order, each new leaf's value record just before the leaf, then a
// root record — into the backend's log. Durability is still explicit: the guest chain calls
// SyncBackend on block finalisation, so the group-fsync boundary coincides
// with "finalised", and a crash recovers exactly the last finalised root.
// With no backend (the default) nothing here runs and the store behaves
// byte-identically to the pure in-heap version.

// NewStoreWithBackend returns a store wired to a nodestore backend. When
// the backend holds recovered state (a reopened disk store), the trie
// resumes from the last durable root: the head and every retained version
// start fully evicted and fault nodes back in on demand, so cold-open cost
// is O(log) replay plus lazy reads, not a full state rebuild. Each
// recovered version is indexed under the height its root record names, so
// AtHeight serves it; recorded heights that do not increase fail with
// ErrHeightOrder. A root record names the height that committed its
// version and no height that shared it, and the log keeps no released
// version: every other height reports ErrUnknownHeight.
func NewStoreWithBackend(b nodestore.Store, opts ...trie.Option) (*Store, error) {
	s := NewStore(opts...)
	if b == nil {
		return s, nil
	}
	s.backend = b
	s.trie.SetNodeSource(b)
	rec := b.Recovered()
	if rec == nil {
		return s, nil
	}
	s.trie.RestoreHead(rec.Head.Root, rec.Head.Sealed, trie.RestoredCounts{
		Nodes:       rec.Head.Nodes,
		Leaves:      rec.Head.Leaves,
		SealedRefs:  rec.Head.SealedRefs,
		TotalAllocs: rec.Head.TotalAllocs,
		TotalFrees:  rec.Head.TotalFrees,
	}, rec.Head.Version+1)
	for _, rr := range rec.Retained {
		if err := s.orderLocked(rr.Height); err != nil {
			return nil, fmt.Errorf("ibc: recovered version %d: %w", rr.Version, err)
		}
		s.trie.RestoreVersion(trie.Version(rr.Version), rr.Root, rr.Sealed)
		s.indexLocked(rr.Height, trie.Version(rr.Version))
	}
	s.evicted = len(s.heights) // every recovered version starts evicted
	return s, nil
}

// Persistent reports whether a backend is attached.
func (s *Store) Persistent() bool { return s.backend != nil }

// flushLocked appends version v's delta to the backend: new nodes and
// their leaves' values (post-order, content-deduped), then the closing
// root record. Called with mu held.
func (s *Store) flushLocked(v Version, height uint64) error {
	if _, err := s.trie.FlushRoot(s.backend); err != nil {
		return fmt.Errorf("ibc: flush version %d: %w", v, err)
	}
	t := s.trie
	err := s.backend.CommitRoot(nodestore.RootRecord{
		Version:     uint64(v),
		Root:        t.Root(),
		Height:      height,
		Nodes:       t.NodeCount(),
		Leaves:      t.Len(),
		SealedRefs:  t.SealedCount(),
		TotalAllocs: t.TotalAllocs(),
		TotalFrees:  t.TotalFrees(),
	})
	if err != nil {
		return fmt.Errorf("ibc: commit root %d: %w", v, err)
	}
	return nil
}

// SyncBackend forces a durability point (group fsync) and surfaces any
// error a background flush recorded. The guest calls it on finalisation.
func (s *Store) SyncBackend() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.backend == nil {
		return nil
	}
	if s.flushErr != nil {
		err := s.flushErr
		s.flushErr = nil
		return err
	}
	return s.backend.Sync()
}

// CloseBackend syncs and closes the backend. The store keeps serving
// in-heap reads afterwards, but evicted versions become unreadable.
func (s *Store) CloseBackend() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.backend == nil {
		return nil
	}
	return s.backend.Close()
}
