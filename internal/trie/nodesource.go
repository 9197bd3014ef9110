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

// SetNodeSource attaches a node backend. With a source attached, refs may
// exist in the evicted state (hash known, node pointer nil, not sealed):
// reads fault the node back in transiently and mutations materialise it on
// the descent path. With no source attached (the default), evicted refs
// are impossible and every code path behaves exactly as before.
func (t *Trie) SetNodeSource(ns NodeSource) { t.ns = ns }

// resolver faults evicted nodes in from a NodeSource during read-only
// walks. Loaded nodes are returned to the walker by value and never
// installed into shared refs, so concurrent Views of retained versions
// stay data-race free: the walkers copy each ref before resolving it.
type resolver struct {
	ns NodeSource
}

func (t *Trie) loader() resolver { return resolver{ns: t.ns} }

// load fetches and decodes the node committed to by h, verifying that the
// decoded content re-hashes to h.
func (rs resolver) load(h cryptoutil.Hash) (*node, error) {
	if rs.ns == nil {
		return nil, fmt.Errorf("trie: node %x evicted but no node source attached", h[:8])
	}
	enc, ok, err := rs.ns.NodeGet(h)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("trie: node %x missing from node source", h[:8])
	}
	return decodeNode(h, enc)
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

// resolve returns the ref's node, faulting it in when evicted. The ref is
// taken by value: the caller's copy gets the pointer, shared state is
// untouched.
func (rs resolver) resolve(r ref) (*node, error) {
	if r.node != nil {
		return r.node, nil
	}
	return rs.load(r.hash)
}

// materialise installs the node behind an evicted ref so a mutation can
// descend through it. It must only be called on refs owned by the current
// mutation (the root field or a child slot of an ensureOwned'd node) —
// never on a ref shared with a retained version. The faulted node carries
// generation 0, so ensureOwned immediately path-copies it: the installed
// node itself is never mutated and may keep being shared via the backend.
func (t *Trie) materialise(cur *ref) error {
	if cur.node != nil || cur.sealed || cur.hash.IsZero() || t.ns == nil {
		return nil
	}
	n, err := t.loader().load(cur.hash)
	if err != nil {
		return err
	}
	cur.node = n
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
	var walk func(r ref) error
	walk = func(r ref) error {
		if r.sealed || r.hash.IsZero() {
			return nil
		}
		if ns.NodeHas(r.hash) {
			return nil
		}
		if r.node == nil {
			// Evicted but unknown to the backend: the store this trie was
			// recovered from must hold it, so a different ns was passed.
			return fmt.Errorf("trie: flush: evicted node %x not present in node source", r.hash[:8])
		}
		n := r.node
		switch n.kind {
		case kindLeaf:
			if n.value != nil {
				if err := ns.ValuePut(n.valueHash(), n.value); err != nil {
					return err
				}
			}
		case kindBranch:
			if err := walk(n.children[0]); err != nil {
				return err
			}
			if err := walk(n.children[1]); err != nil {
				return err
			}
		case kindExt:
			if err := walk(n.children[0]); err != nil {
				return err
			}
		}
		if err := ns.NodePut(r.hash, encodeNode(n)); err != nil {
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

// EvictVersion drops the in-heap node pointer of a retained version,
// leaving only its root hash. The version stays readable through At — the
// walkers fault nodes back in from the attached NodeSource on demand — but
// nodes reachable only from this version become garbage-collectable. Call
// it after the version has been flushed (Commit with a backend attached
// guarantees that). Evicting an unknown version is a no-op.
func (t *Trie) EvictVersion(v Version) {
	r, ok := t.versions[v]
	if !ok || r.node == nil {
		return
	}
	t.versions[v] = ref{hash: r.hash}
}

// RestoreVersion re-registers a retained version from its recovered root
// commitment. The version starts fully evicted; reads fault nodes in from
// the attached NodeSource.
func (t *Trie) RestoreVersion(v Version, root cryptoutil.Hash, sealed bool) {
	if t.versions == nil {
		t.versions = make(map[Version]ref)
	}
	r := ref{hash: root}
	if sealed {
		r.sealed = true
	}
	t.versions[v] = r
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
// evicted (mutations materialise and path-copy nodes on demand) and rev
// becomes the write generation for the next mutations; it must exceed
// every restored version so copy-on-write keeps treating recovered nodes
// as frozen.
func (t *Trie) RestoreHead(root cryptoutil.Hash, sealed bool, c RestoredCounts, rev uint64) {
	r := ref{hash: root}
	if sealed {
		r.sealed = true
	}
	t.root = r
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
