package trie

import (
	"fmt"

	"repro/internal/cryptoutil"
)

// NodeSource is the pluggable content-addressed backend behind the trie:
// a hash→encoded-node store and a hash→value-bytes store. The trie writes
// nodes with NodePut and leaf values with ValuePut during FlushRoot, and
// faults evicted nodes and values back in with NodeGet and ValueGet during
// reads and mutations. internal/nodestore provides the implementations (an
// in-memory map and a WAL-backed disk store); the trie deliberately
// depends only on this seam so the storage layer stays swappable.
//
// The contract is content addressing: NodeGet(h) must return exactly the
// bytes some NodePut(h, enc) stored, and ValueGet(h) the bytes some
// ValuePut(h, value) stored. The trie verifies on decode that a node
// re-hashes to h and that a value hashes to h — a corrupt or substituted
// record can never be silently accepted.
type NodeSource interface {
	// NodePut stores enc under h. Storing the same hash twice is legal and
	// must be idempotent (content-addressed dedup).
	NodePut(h cryptoutil.Hash, enc []byte) error
	// NodeGet returns the encoded node stored under h, or ok=false when the
	// hash is unknown.
	NodeGet(h cryptoutil.Hash) ([]byte, bool, error)
	// NodeHas reports whether h is already stored, letting FlushRoot skip
	// whole already-persisted subtrees.
	NodeHas(h cryptoutil.Hash) bool
	// ValuePut stores a leaf's value bytes under their hash h. Like
	// NodePut it is idempotent.
	ValuePut(h cryptoutil.Hash, value []byte) error
	// ValueGet returns the value bytes stored under h, or ok=false when
	// the hash is unknown.
	ValueGet(h cryptoutil.Hash) ([]byte, bool, error)
}

// SetNodeSource attaches a node backend. With a source attached, slots may
// be evicted (hash known, no cell): reads fault the node in transiently
// and mutations materialise it on the descent path. With no source
// attached (the default), evicted slots are impossible.
func (t *Trie) SetNodeSource(ns NodeSource) { t.ns = ns }

// resolver is what a read-only walk reads: the arena's page tables as the
// walk found them, and the NodeSource it faults evicted nodes in from.
// Faulted nodes are decoded into cells of the walker's own and never
// installed in the arena, so concurrent Views of retained versions stay
// data-race free: the walkers copy each slot before resolving it.
type resolver struct {
	cells [][]cell
	vals  [][][]byte
	ns    NodeSource
}

// loader returns the head's resolver: the writer's own page tables.
func (t *Trie) loader() resolver {
	return resolver{cells: t.cells.pages, vals: t.vals.pages, ns: t.ns}
}

// published returns a View's resolver: the page tables the writer last
// published, which hold every cell of every version retained when they
// were loaded.
func (t *Trie) published() resolver {
	rs := resolver{ns: t.ns}
	if tab := t.pub.Load(); tab != nil {
		rs.cells, rs.vals = tab.cells, tab.vals
	}
	return rs
}

// loadInto fetches and decodes into c the node committed to by h,
// verifying that the decoded content re-hashes to h.
func (rs resolver) loadInto(c *cell, h cryptoutil.Hash) error {
	if rs.ns == nil {
		return fmt.Errorf("trie: node %x evicted but no node source attached", h[:8])
	}
	enc, ok, err := rs.ns.NodeGet(h)
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("trie: node %x missing from node source", h[:8])
	}
	return decodeInto(c, h, enc)
}

// loadValue fetches the value bytes stored under h, verifying that they
// hash to h: a missing record is ErrValueMissing, a substituted one
// ErrValueCorrupt, and a failed read the source's error.
func (rs resolver) loadValue(h cryptoutil.Hash) ([]byte, error) {
	if rs.ns == nil {
		return nil, fmt.Errorf("%w: %x (no node source attached)", ErrValueMissing, h[:8])
	}
	value, ok, err := rs.ns.ValueGet(h)
	switch {
	case err != nil:
		return nil, fmt.Errorf("trie: value %x: %w", h[:8], err)
	case !ok:
		return nil, fmt.Errorf("%w: %x", ErrValueMissing, h[:8])
	case cryptoutil.HashBytes(value) != h:
		return nil, fmt.Errorf("%w: %x", ErrValueCorrupt, h[:8])
	}
	return value, nil
}

// resolve returns the cell s refers to: the arena's, or a fresh decoding
// of the evicted node. The slot is taken by value; shared state is
// untouched.
func (rs resolver) resolve(s slot) (*cell, error) {
	if s.inArena() {
		i := s.index()
		return &rs.cells[i>>pageShift][i&pageMask], nil
	}
	c := new(cell)
	if err := rs.loadInto(c, s.hash); err != nil {
		return nil, err
	}
	return c, nil
}

// materialise faults the node behind an evicted slot into an arena cell so
// a mutation can descend through it. It must only be called on slots the
// head owns (the root or a child slot of an owned cell) — never on one
// shared with a retained version. The cell carries generation 0 and one
// reference, so own edits it in place and counts it as fresh, as it counts
// a path copy.
func (t *Trie) materialise(cur *slot) error {
	if cur.state() != slotEvicted {
		return nil
	}
	var c cell
	if err := t.loader().loadInto(&c, cur.hash); err != nil {
		return err
	}
	c.refs = 1
	cur.tag = stateTag(slotLive, t.place(c))
	return nil
}

// FlushRoot persists every node reachable from the current head root into
// ns, in post-order (children strictly before parents), each leaf's value
// bytes just before the leaf. Subtrees whose
// root hash the backend already holds are skipped wholesale — that is the
// content-addressed dedup which makes flushing an O(delta) operation under
// copy-on-write: only nodes created since the last flush are new hashes.
//
// The post-order discipline is the durability invariant the WAL backend
// relies on: if a parent record is on disk, every child record (and a
// leaf's value record) precedes it in the log, so any log prefix that ends
// at a root record describes a complete, decodable trie.
func (t *Trie) FlushRoot(ns NodeSource) (written int, err error) {
	if ns == nil {
		return 0, fmt.Errorf("trie: flush: nil node source")
	}
	t.settle(&t.root)
	var walk func(s slot) error
	walk = func(s slot) error {
		if s.state() == slotSealed || s.state() == slotEmpty {
			return nil
		}
		if ns.NodeHas(s.hash) {
			return nil
		}
		if !s.inArena() {
			// Evicted but unknown to the backend: the store this trie was
			// recovered from must hold it, so a different ns was passed.
			return fmt.Errorf("trie: flush: evicted node %x not present in node source", s.hash[:8])
		}
		c := t.cell(&s)
		switch c.kind() {
		case kindLeaf:
			if c.holdsValue() {
				if err := ns.ValuePut(c.valueHash(), *t.vals.at(c.kids[0].index())); err != nil {
					return err
				}
			}
		case kindBranch:
			if err := walk(c.kids[0]); err != nil {
				return err
			}
			if err := walk(c.kids[1]); err != nil {
				return err
			}
		case kindExt:
			if err := walk(c.kids[0]); err != nil {
				return err
			}
		}
		if err := ns.NodePut(s.hash, encodeNode(c)); err != nil {
			return err
		}
		written++
		return nil
	}
	if err := walk(t.root); err != nil {
		return written, err
	}
	return written, nil
}

// EvictVersion drops a retained version's cells from the arena, leaving
// only its root hash. The version stays readable through At — the walkers
// fault nodes back in from the attached NodeSource on demand — and the
// cells only this version reached go back on the free list. Call it after
// the version has been flushed (Commit with a backend attached guarantees
// that). Evicting an unknown version is a no-op.
func (t *Trie) EvictVersion(v Version) {
	t.mu.Lock()
	defer t.mu.Unlock()
	r, ok := t.versions[v]
	if !ok || !r.inArena() {
		return
	}
	t.versions[v] = hashOnly(r.hash, false)
	t.drop(r)
}

// RestoreVersion re-registers a retained version from its recovered root
// commitment. The version starts fully evicted; reads fault nodes in from
// the attached NodeSource.
func (t *Trie) RestoreVersion(v Version, root cryptoutil.Hash, sealed bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.versions == nil {
		t.versions = make(map[Version]slot)
	}
	t.drop(t.versions[v])
	t.versions[v] = hashOnly(root, sealed)
}

// RestoredCounts carries the head counters a recovered trie resumes with,
// as persisted in the backend's root record.
type RestoredCounts struct {
	Nodes       int
	Leaves      int
	SealedRefs  int
	TotalAllocs int
	TotalFrees  int
}

// RestoreHead points the head at a recovered root. The head starts fully
// evicted (mutations materialise nodes on demand) and rev becomes the
// write generation for the next mutations; it must exceed every restored
// version, so the next Snapshot names a new one.
func (t *Trie) RestoreHead(root cryptoutil.Hash, sealed bool, c RestoredCounts, rev uint64) {
	t.drop(t.root)
	t.root = hashOnly(root, sealed)
	t.nodeCount = c.Nodes
	t.leafCount = c.Leaves
	t.sealedCount = c.SealedRefs
	t.totalAllocs = c.TotalAllocs
	t.totalFrees = c.TotalFrees
	if rev == 0 {
		rev = 1
	}
	t.rev = rev
	t.fresh = 0
}
