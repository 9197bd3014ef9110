package trie

import (
	"errors"
	"fmt"

	"repro/internal/cryptoutil"
)

// Errors returned by trie operations.
var (
	// ErrNotFound is returned when a key is provably absent.
	ErrNotFound = errors.New("trie: key not found")
	// ErrSealed is returned when an operation would need to access a
	// sealed (freed) part of the trie. In the Guest Contract this error is
	// precisely what prevents double delivery of a packet (§III-A).
	ErrSealed = errors.New("trie: subtree is sealed")
	// ErrFull is returned when the arena capacity (modelling the fixed
	// 10 MiB Solana account) is exhausted.
	ErrFull = errors.New("trie: storage arena full")
	// ErrZeroValue is returned when storing the reserved all-zero value.
	ErrZeroValue = errors.New("trie: cannot store zero value hash")
	// ErrUnknownVersion is returned when reading a version that was never
	// snapshotted or has been released.
	ErrUnknownVersion = errors.New("trie: unknown version")
)

// Version identifies a frozen snapshot of the trie taken by Snapshot.
// Versions are strictly increasing; 0 is never a valid version.
type Version uint64

// Trie is a sealable Merkle-Patricia binary trie over fixed 32-byte keys and
// 32-byte value hashes. The zero value is NOT ready to use; call New.
//
// Trie is a copy-on-write versioned store: Snapshot freezes the current
// contents as an O(1) version handle, and later mutations path-copy any
// node shared with a retained version instead of editing it in place.
// Nodes reachable from a retained version are therefore immutable.
//
// Mutations are not safe for concurrent use — the Guest Contract serialises
// writes the same way the Solana runtime serialises writes to an account —
// but Views of already-snapshotted versions may be read concurrently with
// head mutations, because the writer only ever touches nodes created after
// the snapshot was taken.
type Trie struct {
	root ref

	nodeCount   int // live (unsealed, allocated) nodes in the head version
	leafCount   int // live (unsealed) leaves, maintained so Len is O(1)
	sealedCount int // refs currently marked sealed
	maxNodes    int // 0 = unlimited

	// Cumulative counters used by the storage experiments. They describe
	// the logical head version only: copy-on-write copies are neither
	// allocations nor frees in the storage-deposit model, because the
	// modelled 10 MiB account holds exactly the head — retained versions
	// are the off-chain RPC layer's history, not on-chain storage.
	totalAllocs int
	totalFrees  int

	// rev is the current write generation (see node.rev); versions maps
	// retained snapshot handles to their frozen roots. fresh counts the
	// physical nodes created (allocated or path-copied) in the current
	// generation, for the shared-node telemetry ratio.
	rev      uint64
	versions map[Version]ref
	fresh    int

	// pathScratch and stackScratch back the descent of the current
	// mutation (Set/Seal/Delete). They rely on writes being serialised; the read-only walkers (lookupRef, proveRef) never touch
	// them, so concurrent Views of retained versions stay safe.
	pathScratch  [keyBits]byte
	stackScratch []*ref

	// ns is the optional content-addressed node backend (see nodesource.go).
	// nil means every node lives on the heap and evicted refs are
	// impossible — the original, byte-identical behaviour.
	ns NodeSource
}

// Option configures a Trie.
type Option func(*Trie)

// WithCapacity limits the number of live nodes, modelling a fixed-size
// account. Operations that would allocate past the limit fail with ErrFull.
func WithCapacity(maxNodes int) Option {
	return func(t *Trie) { t.maxNodes = maxNodes }
}

// WithCapacityBytes limits the arena by modelled storage bytes
// (storageBytes per node).
func WithCapacityBytes(maxBytes int) Option {
	return func(t *Trie) { t.maxNodes = maxBytes / storageBytes }
}

// New returns an empty trie.
func New(opts ...Option) *Trie {
	t := &Trie{rev: 1}
	for _, o := range opts {
		o(t)
	}
	return t
}

// Root returns the current root commitment.
func (t *Trie) Root() cryptoutil.Hash { return t.root.hash }

// Len returns the number of live (retrievable) key-value pairs. Sealed
// entries are not counted. The count is maintained incrementally by
// Set/Seal/Delete, so Len is O(1) instead of a full trie walk.
func (t *Trie) Len() int { return t.leafCount }

// NodeCount returns the number of live allocated nodes.
func (t *Trie) NodeCount() int { return t.nodeCount }

// SealedCount returns the number of sealed references currently held.
func (t *Trie) SealedCount() int { return t.sealedCount }

// StorageBytes returns the modelled on-chain byte footprint of live nodes.
func (t *Trie) StorageBytes() int { return t.nodeCount * storageBytes }

// TotalAllocs returns the cumulative number of node allocations.
func (t *Trie) TotalAllocs() int { return t.totalAllocs }

// TotalFrees returns the cumulative number of node frees (from sealing or
// deletion).
func (t *Trie) TotalFrees() int { return t.totalFrees }

// writeRev returns the current write generation, repairing a zero (legacy
// zero-constructed) trie so generation 0 never marks a node as current.
func (t *Trie) writeRev() uint64 {
	if t.rev == 0 {
		t.rev = 1
	}
	return t.rev
}

// reserve fails with ErrFull unless n more nodes fit the arena. An
// operation that allocates more than once reserves its net growth before
// it touches anything, so a full arena never leaves it half applied.
func (t *Trie) reserve(n int) error {
	if t.maxNodes > 0 && t.nodeCount+n > t.maxNodes {
		return ErrFull
	}
	return nil
}

// take counts n into the arena; the caller has reserved the room.
func (t *Trie) take(n *node) *node {
	n.rev = t.writeRev()
	t.nodeCount++
	t.totalAllocs++
	t.fresh++
	return n
}

func (t *Trie) alloc(n *node) (*node, error) {
	if err := t.reserve(1); err != nil {
		return nil, err
	}
	return t.take(n), nil
}

func (t *Trie) free(n *node) {
	if n == nil {
		return
	}
	t.nodeCount--
	t.totalFrees++
}

// ensureOwned returns cur's node, path-copying it first when it belongs to
// an older write generation and may therefore be shared with a retained
// version. The copy is content- and hash-identical, so taking ownership of
// a whole descent path is safe even when the operation later fails.
// Copies do not move the storage-deposit counters: the head holds the same
// logical node either way.
func (t *Trie) ensureOwned(cur *ref) *node {
	n := cur.node
	if n == nil || n.rev == t.writeRev() {
		return n
	}
	cp := *n
	cp.rev = t.rev
	cur.node = &cp
	t.fresh++
	return cur.node
}

// descentPath unpacks key into the trie's mutation scratch. The returned
// path is valid only until the next mutation begins; node paths derived
// from it must be clone()d before being stored, which Set/Seal/Delete
// already guarantee.
func (t *Trie) descentPath(key [KeySize]byte) path {
	p := path(t.pathScratch[:])
	for i := 0; i < keyBits; i++ {
		p[i] = (key[i/8] >> (7 - uint(i%8))) & 1
	}
	return p
}

// mutStack returns the reusable (empty) ancestor stack for a mutation. Its
// capacity covers the maximum possible descent depth, so appends never
// reallocate.
func (t *Trie) mutStack() []*ref {
	if t.stackScratch == nil {
		t.stackScratch = make([]*ref, 0, keyBits)
	}
	return t.stackScratch[:0]
}

// rehash recomputes commitments from the deepest changed ref up to the
// root.
func (t *Trie) rehash(stack []*ref) {
	for i := len(stack) - 1; i >= 0; i-- {
		stack[i].hash = stack[i].node.hash()
	}
}

// Set stores value under key. Inserting a key whose path crosses a sealed
// reference fails with ErrSealed — including re-inserting a key that was
// itself sealed, which is the double-delivery guard of Alg. 1 line 37.
func (t *Trie) Set(key [KeySize]byte, value cryptoutil.Hash) error {
	if value.IsZero() {
		return ErrZeroValue
	}
	remaining := t.descentPath(key)
	cur := &t.root
	stack := t.mutStack()

	for {
		if cur.sealed {
			return ErrSealed
		}
		if err := t.materialise(cur); err != nil {
			return err
		}
		if cur.node == nil {
			if !cur.hash.IsZero() {
				// Defensive: a non-zero hash without a node must be sealed
				// (unreachable once materialise has run with a source).
				return ErrSealed
			}
			leaf, err := t.alloc(&node{kind: kindLeaf, path: remaining.clone(), value: value})
			if err != nil {
				return err
			}
			cur.node = leaf
			cur.hash = leaf.hash()
			t.leafCount++
			t.rehash(stack)
			return nil
		}
		n := t.ensureOwned(cur)
		switch n.kind {
		case kindLeaf:
			c := commonPrefixLen(n.path, remaining)
			if c == len(n.path) && c == len(remaining) {
				if n.sealed {
					// Double-delivery guard (Alg. 1 line 37): a sealed
					// key can never be written again.
					return ErrSealed
				}
				n.value = value
				cur.hash = n.hash()
				t.rehash(stack)
				return nil
			}
			if err := t.splitLeaf(cur, n, remaining, value, c); err != nil {
				return err
			}
			t.rehash(stack)
			return nil
		case kindExt:
			c := commonPrefixLen(n.path, remaining)
			if c == len(n.path) {
				remaining = remaining[c:]
				stack = append(stack, cur)
				cur = &n.child
				continue
			}
			if err := t.splitExt(cur, n, remaining, value, c); err != nil {
				return err
			}
			t.rehash(stack)
			return nil
		case kindBranch:
			if len(remaining) == 0 {
				return fmt.Errorf("trie: internal: key exhausted at branch")
			}
			b := remaining[0]
			remaining = remaining[1:]
			stack = append(stack, cur)
			cur = &n.children[b]
		default:
			return fmt.Errorf("trie: internal: invalid node kind %d", n.kind)
		}
	}
}

// splitLeaf replaces the leaf held by cur with a structure distinguishing
// the existing leaf from the new (key remainder, value) pair. c is the
// common prefix length; because keys are fixed length, both remainders are
// non-empty and differ at bit c.
func (t *Trie) splitLeaf(cur *ref, old *node, remaining path, value cryptoutil.Hash, c int) error {
	oldRest := old.path[c:]
	newRest := remaining[c:]

	// The new leaf and the branch, plus an extension above them when the
	// two keys share a prefix.
	grow := 2
	if c > 0 {
		grow = 3
	}
	if err := t.reserve(grow); err != nil {
		return err
	}
	newLeaf := t.take(&node{kind: kindLeaf, path: newRest[1:].clone(), value: value})
	br := t.take(&node{kind: kindBranch})
	// Reuse the old leaf node with a shortened path.
	old.path = oldRest[1:].clone()
	br.children[oldRest[0]] = ref{hash: old.hash(), node: old}
	br.children[newRest[0]] = ref{hash: newLeaf.hash(), node: newLeaf}
	t.leafCount++

	if c == 0 {
		cur.node = br
		cur.hash = br.hash()
		return nil
	}
	ext := t.take(&node{kind: kindExt, path: remaining[:c].clone()})
	ext.child = ref{hash: br.hash(), node: br}
	cur.node = ext
	cur.hash = ext.hash()
	return nil
}

// splitExt replaces the extension held by cur so the new key can branch off
// at bit c of the extension's path.
func (t *Trie) splitExt(cur *ref, old *node, remaining path, value cryptoutil.Hash, c int) error {
	oldRest := old.path[c:] // >= 1 bit
	newRest := remaining[c:]

	// The new leaf and the branch, plus an extension above them when the
	// key shares a prefix with the old one — unless the old extension has
	// a single bit left: the branch absorbs it, and the slot it frees
	// pays for the new extension.
	grow := 2
	if c > 0 && len(oldRest) > 1 {
		grow = 3
	}
	if err := t.reserve(grow); err != nil {
		return err
	}
	newLeaf := t.take(&node{kind: kindLeaf, path: newRest[1:].clone(), value: value})
	br := t.take(&node{kind: kindBranch})

	// The old extension's child goes under oldRest[0], via a shortened
	// extension if bits remain.
	if len(oldRest) == 1 {
		br.children[oldRest[0]] = old.child
		t.free(old)
	} else {
		old.path = oldRest[1:].clone()
		br.children[oldRest[0]] = ref{hash: old.hash(), node: old}
	}
	br.children[newRest[0]] = ref{hash: newLeaf.hash(), node: newLeaf}
	t.leafCount++

	if c == 0 {
		cur.node = br
		cur.hash = br.hash()
		return nil
	}
	ext := t.take(&node{kind: kindExt, path: remaining[:c].clone()})
	ext.child = ref{hash: br.hash(), node: br}
	cur.node = ext
	cur.hash = ext.hash()
	return nil
}

// Get returns the value stored under key. It returns ErrNotFound if the key
// is provably absent and ErrSealed if the lookup would need to traverse a
// sealed reference.
func (t *Trie) Get(key [KeySize]byte) (cryptoutil.Hash, error) {
	return lookupRef(t.loader(), t.root, key)
}

// lookupRef resolves key starting from an arbitrary root reference. It is
// purely read-only — refs are walked by value and faulted nodes are never
// installed into shared state — which is what lets Views of retained
// versions share it with the live head, race-free.
func lookupRef(rs resolver, root ref, key [KeySize]byte) (cryptoutil.Hash, error) {
	remaining := keyToPath(key)
	cur := root
	for {
		if cur.sealed {
			return cryptoutil.ZeroHash, ErrSealed
		}
		if cur.node == nil && cur.hash.IsZero() {
			return cryptoutil.ZeroHash, ErrNotFound
		}
		n, err := rs.resolve(cur)
		if err != nil {
			return cryptoutil.ZeroHash, err
		}
		switch n.kind {
		case kindLeaf:
			if n.path.equal(remaining) {
				if n.sealed {
					return cryptoutil.ZeroHash, ErrSealed
				}
				return n.value, nil
			}
			return cryptoutil.ZeroHash, ErrNotFound
		case kindExt:
			c := commonPrefixLen(n.path, remaining)
			if c < len(n.path) {
				return cryptoutil.ZeroHash, ErrNotFound
			}
			remaining = remaining[c:]
			cur = n.child
		case kindBranch:
			b := remaining[0]
			remaining = remaining[1:]
			cur = n.children[b]
		default:
			return cryptoutil.ZeroHash, fmt.Errorf("trie: internal: invalid node kind %d", n.kind)
		}
	}
}

// Has reports whether key is present (and unsealed).
func (t *Trie) Has(key [KeySize]byte) (bool, error) {
	_, err := t.Get(key)
	switch {
	case err == nil:
		return true, nil
	case errors.Is(err, ErrNotFound):
		return false, nil
	default:
		return false, err
	}
}

// Seal marks the leaf holding key as sealed (§III-A): its value becomes
// permanently inaccessible while the root commitment is unchanged. The leaf
// is retained as an immutable stub so neighbouring keys stay insertable;
// once every key under a subtree's prefix has been sealed (which happens
// for the dense sequential sequence-number keys the Guest Contract uses),
// the saturated subtree collapses into a single opaque reference and its
// nodes are freed — this is the disk-reclamation mechanism that bounds the
// guest blockchain's storage.
func (t *Trie) Seal(key [KeySize]byte) error {
	remaining := t.descentPath(key)
	cur := &t.root
	stack := t.mutStack()

	for {
		if cur.sealed {
			return ErrSealed
		}
		if err := t.materialise(cur); err != nil {
			return err
		}
		if cur.node == nil {
			return ErrNotFound
		}
		n := t.ensureOwned(cur)
		switch n.kind {
		case kindLeaf:
			if !n.path.equal(remaining) {
				return ErrNotFound
			}
			if n.sealed {
				return ErrSealed
			}
			n.sealed = true
			t.leafCount--
			t.collapseSaturated(stack)
			return nil
		case kindExt:
			c := commonPrefixLen(n.path, remaining)
			if c < len(n.path) {
				return ErrNotFound
			}
			remaining = remaining[c:]
			stack = append(stack, cur)
			cur = &n.child
		case kindBranch:
			b := remaining[0]
			remaining = remaining[1:]
			stack = append(stack, cur)
			cur = &n.children[b]
		default:
			return fmt.Errorf("trie: internal: invalid node kind %d", n.kind)
		}
	}
}

// saturated reports whether the ref's entire key range is sealed: either an
// opaque sealed ref, or a zero-length-path sealed leaf stub (which covers
// exactly one key).
func saturated(r *ref) bool {
	if r.sealed {
		return true
	}
	n := r.node
	return n != nil && n.kind == kindLeaf && n.sealed && len(n.path) == 0
}

// collapseSaturated walks ancestors from deepest to shallowest, replacing
// any branch whose both children are saturated with an opaque sealed
// reference and freeing the nodes. Extensions never collapse: their path
// bits mean sibling keys were never inserted, so the covered range is not
// saturated. Hashes never change.
func (t *Trie) collapseSaturated(stack []*ref) {
	for i := len(stack) - 1; i >= 0; i-- {
		r := stack[i]
		n := r.node
		if n.kind != kindBranch {
			return
		}
		// An evicted sibling may hide a saturated stub; fault it in before
		// deciding. A load failure only skips the (optional) collapse.
		for j := range n.children {
			if t.materialise(&n.children[j]) != nil {
				return
			}
		}
		if !saturated(&n.children[0]) || !saturated(&n.children[1]) {
			return
		}
		for j := range n.children {
			if n.children[j].node != nil {
				t.free(n.children[j].node)
			}
			if n.children[j].sealed {
				t.sealedCount--
			}
		}
		t.free(n)
		r.node = nil
		r.sealed = true
		t.sealedCount++
	}
}

// Delete removes key from the trie, restructuring ancestors. Deleting a key
// whose sibling subtree is sealed fails with ErrSealed, because merging
// would require rebuilding a node whose contents were freed. (The Guest
// Contract only deletes entries it never seals, e.g. packet commitments
// cleared on acknowledgement.)
func (t *Trie) Delete(key [KeySize]byte) error {
	remaining := t.descentPath(key)
	cur := &t.root
	stack := t.mutStack()

	for {
		if cur.sealed {
			return ErrSealed
		}
		if err := t.materialise(cur); err != nil {
			return err
		}
		if cur.node == nil {
			return ErrNotFound
		}
		n := t.ensureOwned(cur)
		switch n.kind {
		case kindLeaf:
			if !n.path.equal(remaining) {
				return ErrNotFound
			}
			if n.sealed {
				return ErrSealed
			}
			return t.deleteLeaf(cur, stack)
		case kindExt:
			c := commonPrefixLen(n.path, remaining)
			if c < len(n.path) {
				return ErrNotFound
			}
			remaining = remaining[c:]
			stack = append(stack, cur)
			cur = &n.child
		case kindBranch:
			b := remaining[0]
			remaining = remaining[1:]
			stack = append(stack, cur)
			cur = &n.children[b]
		default:
			return fmt.Errorf("trie: internal: invalid node kind %d", n.kind)
		}
	}
}

// deleteLeaf removes the leaf at cur and restructures: the leaf's parent
// branch collapses into its sibling (possibly merging extensions/leaf
// paths); a chain of extensions above is merged.
func (t *Trie) deleteLeaf(cur *ref, stack []*ref) error {
	// Find nearest branch ancestor; extensions between it and the leaf
	// would only exist if the leaf were deeper than its parent ext, but an
	// ext's child is the leaf only via direct ref, so cur's parent is
	// either a branch, an ext (whose only child is this leaf), or the root.
	if len(stack) == 0 {
		// Leaf at root.
		t.free(cur.node)
		t.leafCount--
		*cur = ref{}
		return nil
	}
	parent := stack[len(stack)-1]
	pn := parent.node

	if pn.kind == kindExt {
		// An extension leading directly to a leaf cannot exist by
		// construction (extensions always lead to branches), but guard
		// against it to keep Delete total.
		return fmt.Errorf("trie: internal: extension above leaf")
	}

	// Parent is a branch: identify the sibling. The sibling's node gets
	// restructured by mergeDown, so take ownership of it too — it is not on
	// the descent path and may still be shared with a retained version.
	var sideBit byte
	if &pn.children[1] == cur {
		sideBit = 1
	}
	if pn.children[1-sideBit].sealed {
		return ErrSealed
	}
	if err := t.materialise(&pn.children[1-sideBit]); err != nil {
		return err
	}
	t.ensureOwned(&pn.children[1-sideBit])
	sib := pn.children[1-sideBit]

	// Replace the branch with "sibling prefixed by its branch bit". Build
	// the replacement before freeing anything so an allocation failure
	// leaves the trie untouched.
	merged, err := t.mergeDown(1-sideBit, sib)
	if err != nil {
		return err
	}
	t.free(cur.node)
	t.free(pn)
	t.leafCount--
	*parent = merged
	stack = stack[:len(stack)-1]

	// If the new parent slot is an ext/leaf and ITS parent is an ext,
	// merge the two paths.
	if len(stack) > 0 {
		gp := stack[len(stack)-1]
		if gp.node.kind == kindExt && parent == &gp.node.child {
			if err := t.mergeExtChild(gp); err != nil {
				return err
			}
			stack = stack[:len(stack)-1]
		}
	}
	t.rehash(stack)
	return nil
}

// mergeDown produces the ref that replaces a deleted branch: the surviving
// child prefixed with its branch bit. Leaf and extension children absorb
// the bit into their path; a branch child gets a fresh 1-bit extension.
func (t *Trie) mergeDown(bit byte, sib ref) (ref, error) {
	n := sib.node
	switch n.kind {
	case kindLeaf:
		n.path = append(path{bit}, n.path...)
		return ref{hash: n.hash(), node: n}, nil
	case kindExt:
		n.path = append(path{bit}, n.path...)
		return ref{hash: n.hash(), node: n}, nil
	case kindBranch:
		ext, err := t.alloc(&node{kind: kindExt, path: path{bit}, child: sib})
		if err != nil {
			return ref{}, err
		}
		return ref{hash: ext.hash(), node: ext}, nil
	default:
		return ref{}, fmt.Errorf("trie: internal: invalid node kind %d", n.kind)
	}
}

// mergeExtChild merges gp (an extension) with its child when the child is
// itself an extension or a leaf, concatenating paths.
func (t *Trie) mergeExtChild(gp *ref) error {
	ext := gp.node
	if err := t.materialise(&ext.child); err != nil {
		return err
	}
	child := t.ensureOwned(&ext.child)
	if child == nil {
		return nil
	}
	switch child.kind {
	case kindLeaf, kindExt:
		child.path = append(ext.path.clone(), child.path...)
		t.free(ext)
		gp.node = child
		gp.hash = child.hash()
	case kindBranch:
		gp.hash = ext.hash()
	}
	return nil
}

// Snapshot freezes the current contents as a new version and returns its
// handle. The call is O(1): no nodes or values are copied — the version
// records the current root reference, and the write generation is bumped so
// that every future mutation path-copies the nodes it touches instead of
// editing anything reachable from the frozen root.
func (t *Trie) Snapshot() Version {
	if t.versions == nil {
		t.versions = make(map[Version]ref)
	}
	v := Version(t.writeRev())
	t.versions[v] = t.root
	t.rev++
	t.fresh = 0
	return v
}

// At returns a read-only view of a retained version. Views stay valid (and
// safe to read concurrently with head mutations) until the version is
// released.
func (t *Trie) At(v Version) (*View, error) {
	r, ok := t.versions[v]
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrUnknownVersion, v)
	}
	return &View{version: v, root: r, rs: t.loader()}, nil
}

// VersionRoot returns the root commitment frozen by version v.
func (t *Trie) VersionRoot(v Version) (cryptoutil.Hash, error) {
	r, ok := t.versions[v]
	if !ok {
		return cryptoutil.ZeroHash, fmt.Errorf("%w: %d", ErrUnknownVersion, v)
	}
	return r.hash, nil
}

// Release drops a retained version. Nodes reachable only from released
// versions become garbage: the head and the remaining versions share
// everything still live, so nothing else keeps the pruned nodes alive.
// Releasing an unknown version is a no-op.
func (t *Trie) Release(v Version) {
	delete(t.versions, v)
}

// RetainedVersions returns how many snapshot versions are currently held.
func (t *Trie) RetainedVersions() int { return len(t.versions) }

// SharedNodeRatio reports the fraction of the head version's nodes that are
// structurally shared with the last snapshot (i.e. not written since). 1
// means the head is entirely shared; 0 means every node was rewritten.
func (t *Trie) SharedNodeRatio() float64 {
	if t.nodeCount <= 0 {
		return 1
	}
	r := 1 - float64(t.fresh)/float64(t.nodeCount)
	if r < 0 {
		return 0
	}
	return r
}

// Keys returns all live keys in the trie, in depth-first order. Intended
// for tests and debugging.
func (t *Trie) Keys() [][KeySize]byte {
	return keysFrom(t.loader(), t.root)
}

func keysFrom(rs resolver, root ref) [][KeySize]byte {
	var out [][KeySize]byte
	var walk func(r ref, prefix path)
	walk = func(r ref, prefix path) {
		if r.sealed || (r.node == nil && r.hash.IsZero()) {
			return
		}
		n, err := rs.resolve(r)
		if err != nil {
			return
		}
		switch n.kind {
		case kindLeaf:
			if n.sealed {
				return
			}
			full := append(prefix.clone(), n.path...)
			out = append(out, pathToKey(full))
		case kindExt:
			walk(n.child, append(prefix.clone(), n.path...))
		case kindBranch:
			walk(n.children[0], append(prefix.clone(), 0))
			walk(n.children[1], append(prefix.clone(), 1))
		}
	}
	walk(root, nil)
	return out
}
