package ibc

import "repro/internal/cryptoutil"

// The store's path-keyed writes and reads that only tests make. The
// handler seals receipts and deletes commitments through s.trie with the
// keys it precomputes; these derive the key from the path the same way.

// Delete removes path. Retained versions keep their own leaf, so they
// still read the old bytes.
func (s *Store) Delete(path string) error {
	if err := s.trie.Delete(PathToKey(path)); err != nil {
		return pathError("delete", path, err)
	}
	return nil
}

// Seal permanently retires path, reclaiming its storage while keeping the
// root commitment intact (§III-A). As with Delete, retained versions keep
// serving the pre-seal value.
func (s *Store) Seal(path string) error {
	if err := s.trie.Seal(PathToKey(path)); err != nil {
		return pathError("seal", path, err)
	}
	return nil
}

// ProveNonMembership returns a serialized absence proof for path at head.
func (s *Store) ProveNonMembership(path string) ([]byte, error) { return s.read().proveAbsence(path) }

// Root returns the version's frozen commitment root.
func (r *ReadOnlyStore) Root() cryptoutil.Hash { return r.view.Root() }

// Get returns the value bytes stored under path at this version.
func (r *ReadOnlyStore) Get(path string) ([]byte, error) { return r.read().get(path) }
