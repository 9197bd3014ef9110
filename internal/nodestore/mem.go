package nodestore

import (
	"sort"
	"sync"

	"repro/internal/cryptoutil"
)

// Mem is the in-memory Store: plain maps behind a mutex. It keeps exactly
// the data the heap already held, so attaching it to a trie changes no
// observable behaviour — it exists to unit-test the durability plumbing
// (flush ordering, value records, root records) without touching disk,
// and to serve as the reference implementation for the Disk recovery
// tests.
type Mem struct {
	mu       sync.Mutex
	nodes    map[cryptoutil.Hash][]byte
	values   map[cryptoutil.Hash][]byte
	roots    []RootRecord
	released map[uint64]struct{}
	stats    Stats
}

// NewMem returns an empty in-memory store.
func NewMem() *Mem {
	return &Mem{
		nodes:    make(map[cryptoutil.Hash][]byte),
		values:   make(map[cryptoutil.Hash][]byte),
		released: make(map[uint64]struct{}),
	}
}

// NodePut stores enc under h, deduplicating on hash.
func (m *Mem) NodePut(h cryptoutil.Hash, enc []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.nodes[h]; ok {
		m.stats.NodesDeduped++
		return nil
	}
	cp := make([]byte, len(enc))
	copy(cp, enc)
	m.nodes[h] = cp
	m.stats.NodesWritten++
	return nil
}

// NodeGet returns the encoded node stored under h.
func (m *Mem) NodeGet(h cryptoutil.Hash) ([]byte, bool, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	enc, ok := m.nodes[h]
	if ok {
		m.stats.NodeReads++
	}
	return enc, ok, nil
}

// NodeHas reports whether h is stored.
func (m *Mem) NodeHas(h cryptoutil.Hash) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	_, ok := m.nodes[h]
	return ok
}

// ValuePut stores value under h, deduplicating on hash.
func (m *Mem) ValuePut(h cryptoutil.Hash, value []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.values[h]; !ok {
		m.values[h] = append([]byte(nil), value...)
	}
	return nil
}

// ValueGet returns the value bytes stored under h.
func (m *Mem) ValueGet(h cryptoutil.Hash) ([]byte, bool, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	value, ok := m.values[h]
	return value, ok, nil
}

// CommitRoot records the root closing one version.
func (m *Mem) CommitRoot(rec RootRecord) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.roots = append(m.roots, rec)
	m.stats.RootsCommitted++
	return nil
}

// ReleaseVersion drops ver from the retained set.
func (m *Mem) ReleaseVersion(ver uint64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.released[ver] = struct{}{}
	return nil
}

// Recovered always returns nil: a Mem store never outlives its process.
func (m *Mem) Recovered() *RecoveredState { return nil }

// Sync is a no-op for the in-memory store.
func (m *Mem) Sync() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.stats.Syncs++
	return nil
}

// Close is a no-op for the in-memory store.
func (m *Mem) Close() error { return nil }

// Stats returns a snapshot of the store's counters.
func (m *Mem) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}

// recoveredFromRoots derives the RecoveredState from a replayed root/release
// stream: the last root is the head, and retained versions are the roots
// never released, newest record per version, sorted by version.
func recoveredFromRoots(roots []RootRecord, released map[uint64]struct{}) *RecoveredState {
	if len(roots) == 0 {
		return nil
	}
	rs := &RecoveredState{Head: roots[len(roots)-1]}
	byVer := make(map[uint64]RootRecord, len(roots))
	for _, r := range roots {
		if _, dead := released[r.Version]; !dead {
			byVer[r.Version] = r // later records win
		}
	}
	for _, r := range byVer {
		rs.Retained = append(rs.Retained, r)
	}
	sort.Slice(rs.Retained, func(i, j int) bool { return rs.Retained[i].Version < rs.Retained[j].Version })
	return rs
}
