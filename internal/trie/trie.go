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
	// ErrValueMissing is returned when a leaf's value bytes are neither
	// held by the leaf nor stored in the NodeSource under its value hash
	// (the leaf was written by Set, which stores only the hash).
	ErrValueMissing = errors.New("trie: value bytes missing")
	// ErrValueCorrupt is returned when the bytes a NodeSource returns for
	// a leaf's value do not hash to the leaf's value hash.
	ErrValueCorrupt = errors.New("trie: value bytes do not match the leaf")
)

// Version identifies a frozen snapshot of the trie taken by Snapshot.
// Versions are strictly increasing; 0 is never a valid version.
type Version uint64

// Trie is a sealable Merkle-Patricia binary trie over fixed 32-byte keys and
// 32-byte value hashes; a leaf written by Put also holds the value bytes
// behind its hash. The zero value is NOT ready to use; call New.
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
	maxNodes    int // 0 = unlimited, < 0 = no room at all

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

	// stackScratch backs the ancestor stack of the current mutation
	// (Set/Seal/Delete). It relies on writes being serialised; the
	// read-only walkers (lookupRef, proveRef) never touch it, so
	// concurrent Views of retained versions stay safe.
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
// Zero means unlimited.
func WithCapacity(maxNodes int) Option {
	return func(t *Trie) { t.maxNodes = maxNodes }
}

// WithCapacityBytes limits the arena by modelled storage bytes
// (storageBytes per node). Zero means unlimited; a positive cap smaller
// than one node holds none, so every allocation fails with ErrFull.
func WithCapacityBytes(maxBytes int) Option {
	return func(t *Trie) {
		t.maxNodes = maxBytes / storageBytes
		if maxBytes > 0 && t.maxNodes == 0 {
			t.maxNodes = -1
		}
	}
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
	if t.maxNodes != 0 && t.nodeCount+n > t.maxNodes {
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

// holds reports whether leaf n holds the key kp, whose bits from pos on
// remain after the descent to n.
func (n *node) holds(kp *path, pos int) bool {
	return pos+n.path.len() == keyBits && n.path.matchLen(kp, pos) == n.path.len()
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

// Set stores the value hash value under key. Inserting a key whose path
// crosses a sealed reference fails with ErrSealed — including re-inserting
// a key that was itself sealed, which is the double-delivery guard of
// Alg. 1 line 37.
func (t *Trie) Set(key [KeySize]byte, value cryptoutil.Hash) error {
	if value.IsZero() {
		return ErrZeroValue
	}
	return t.set(key, value, nil)
}

// Put stores value's hash under key, as Set does, and keeps a copy of the
// bytes in the leaf, so Value reads them back from this version and every
// version snapshotted before the key changes again.
func (t *Trie) Put(key [KeySize]byte, value []byte) error {
	held := make([]byte, len(value)) // non-nil even when empty: the leaf holds it
	copy(held, value)
	return t.set(key, cryptoutil.HashBytes(value), held)
}

// set stores the leaf (h, value) under key: the one write path of Set and
// Put.
func (t *Trie) set(key [KeySize]byte, h cryptoutil.Hash, value []byte) error {
	kp := keyToPath(key)
	pos := 0
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
			leaf, err := t.alloc(newLeaf(kp.slice(pos, keyBits), h, value))
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
			c := n.path.matchLen(&kp, pos)
			if c == n.path.len() && pos+c == keyBits {
				if n.sealed {
					// Double-delivery guard (Alg. 1 line 37): a sealed
					// key can never be written again.
					return ErrSealed
				}
				n.children[0].hash, n.value = h, value
				cur.hash = n.hash()
				t.rehash(stack)
				return nil
			}
			if err := t.splitLeaf(cur, n, &kp, pos, newLeaf(kp.slice(pos+c+1, keyBits), h, value), c); err != nil {
				return err
			}
			t.rehash(stack)
			return nil
		case kindExt:
			c := n.path.matchLen(&kp, pos)
			if c == n.path.len() {
				pos += c
				stack = append(stack, cur)
				cur = &n.children[0]
				continue
			}
			if err := t.splitExt(cur, n, &kp, pos, newLeaf(kp.slice(pos+c+1, keyBits), h, value), c); err != nil {
				return err
			}
			t.rehash(stack)
			return nil
		case kindBranch:
			if pos == keyBits {
				return fmt.Errorf("trie: internal: key exhausted at branch")
			}
			b := kp.bit(pos)
			pos++
			stack = append(stack, cur)
			cur = &n.children[b]
		default:
			return fmt.Errorf("trie: internal: invalid node kind %d", n.kind)
		}
	}
}

// splitLeaf replaces the leaf held by cur with a structure distinguishing
// the existing leaf from leaf, the new key's leaf, which holds the key's
// remainder after bit pos+c of kp. c is the common prefix length; because keys are
// fixed length, both remainders are non-empty and differ at bit c.
func (t *Trie) splitLeaf(cur *ref, old *node, kp *path, pos int, leaf *node, c int) error {
	// The new leaf and the branch, plus an extension above them when the
	// two keys share a prefix.
	grow := 2
	if c > 0 {
		grow = 3
	}
	if err := t.reserve(grow); err != nil {
		return err
	}
	t.take(leaf)
	br := t.take(&node{kind: kindBranch})
	// Reuse the old leaf node with a shortened path.
	oldBit := old.path.bit(c)
	old.path = old.path.slice(c+1, old.path.len())
	br.children[oldBit] = ref{hash: old.hash(), node: old}
	br.children[kp.bit(pos+c)] = ref{hash: leaf.hash(), node: leaf}
	t.leafCount++
	t.branchOff(cur, br, kp, pos, c)
	return nil
}

// branchOff installs a split's new branch at cur, under an extension over
// the c bits of kp from pos on that the two keys share, if any.
func (t *Trie) branchOff(cur *ref, br *node, kp *path, pos, c int) {
	if c == 0 {
		cur.node = br
		cur.hash = br.hash()
		return
	}
	ext := t.take(&node{kind: kindExt, path: kp.slice(pos, pos+c)})
	ext.children[0] = ref{hash: br.hash(), node: br}
	cur.node = ext
	cur.hash = ext.hash()
}

// splitExt replaces the extension held by cur so leaf, the new key's leaf,
// can branch off at bit c of the extension's path.
func (t *Trie) splitExt(cur *ref, old *node, kp *path, pos int, leaf *node, c int) error {
	oldRest := old.path.len() - c // >= 1 bit

	// The new leaf and the branch, plus an extension above them when the
	// key shares a prefix with the old one — unless the old extension has
	// a single bit left: the branch absorbs it, and the slot it frees
	// pays for the new extension.
	grow := 2
	if c > 0 && oldRest > 1 {
		grow = 3
	}
	if err := t.reserve(grow); err != nil {
		return err
	}
	t.take(leaf)
	br := t.take(&node{kind: kindBranch})

	// The old extension's child goes under its bit c, via a shortened
	// extension if bits remain.
	oldBit := old.path.bit(c)
	if oldRest == 1 {
		br.children[oldBit] = old.children[0]
		t.free(old)
	} else {
		old.path = old.path.slice(c+1, old.path.len())
		br.children[oldBit] = ref{hash: old.hash(), node: old}
	}
	br.children[kp.bit(pos+c)] = ref{hash: leaf.hash(), node: leaf}
	t.leafCount++
	t.branchOff(cur, br, kp, pos, c)
	return nil
}

// Get returns the value hash stored under key. It returns ErrNotFound if
// the key is provably absent and ErrSealed if the lookup would need to
// traverse a sealed reference.
func (t *Trie) Get(key [KeySize]byte) (cryptoutil.Hash, error) {
	return lookupHash(t.loader(), t.root, key)
}

// Value returns the value bytes stored under key by Put, with Get's
// errors, or ErrValueMissing and ErrValueCorrupt when the leaf's bytes
// cannot be read back (see resolver.loadValue). The caller must not
// modify the returned bytes.
func (t *Trie) Value(key [KeySize]byte) ([]byte, error) {
	return lookupValue(t.loader(), t.root, key)
}

// lookupLeaf resolves key's live leaf starting from an arbitrary root
// reference. It is purely read-only — refs are walked by value and faulted
// nodes are never installed into shared state — which is what lets Views
// of retained versions share it with the live head, race-free.
func lookupLeaf(rs resolver, root ref, key [KeySize]byte) (*node, error) {
	kp := keyToPath(key)
	pos := 0
	cur := root
	for {
		if cur.sealed {
			return nil, ErrSealed
		}
		if cur.node == nil && cur.hash.IsZero() {
			return nil, ErrNotFound
		}
		n, err := rs.resolve(cur)
		if err != nil {
			return nil, err
		}
		switch n.kind {
		case kindLeaf:
			if n.holds(&kp, pos) {
				if n.sealed {
					return nil, ErrSealed
				}
				return n, nil
			}
			return nil, ErrNotFound
		case kindExt:
			if n.path.matchLen(&kp, pos) < n.path.len() {
				return nil, ErrNotFound
			}
			pos += n.path.len()
			cur = n.children[0]
		case kindBranch:
			cur = n.children[kp.bit(pos)]
			pos++
		default:
			return nil, fmt.Errorf("trie: internal: invalid node kind %d", n.kind)
		}
	}
}

// lookupHash returns the value hash of key's leaf under root.
func lookupHash(rs resolver, root ref, key [KeySize]byte) (cryptoutil.Hash, error) {
	n, err := lookupLeaf(rs, root, key)
	if err != nil {
		return cryptoutil.ZeroHash, err
	}
	return n.valueHash(), nil
}

// lookupValue returns the value bytes of key's leaf under root: the leaf's
// own, or the NodeSource's record under the leaf's value hash.
func lookupValue(rs resolver, root ref, key [KeySize]byte) ([]byte, error) {
	n, err := lookupLeaf(rs, root, key)
	if err != nil {
		return nil, err
	}
	if n.value != nil {
		return n.value, nil
	}
	return rs.loadValue(n.valueHash())
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
	kp := keyToPath(key)
	pos := 0
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
			if !n.holds(&kp, pos) {
				return ErrNotFound
			}
			if n.sealed {
				return ErrSealed
			}
			n.sealed, n.value = true, nil
			t.leafCount--
			t.collapseSaturated(stack)
			return nil
		case kindExt:
			if n.path.matchLen(&kp, pos) < n.path.len() {
				return ErrNotFound
			}
			pos += n.path.len()
			stack = append(stack, cur)
			cur = &n.children[0]
		case kindBranch:
			b := kp.bit(pos)
			pos++
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
	return n != nil && n.kind == kindLeaf && n.sealed && n.path.len() == 0
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
	kp := keyToPath(key)
	pos := 0
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
			if !n.holds(&kp, pos) {
				return ErrNotFound
			}
			if n.sealed {
				return ErrSealed
			}
			return t.deleteLeaf(cur, stack)
		case kindExt:
			if n.path.matchLen(&kp, pos) < n.path.len() {
				return ErrNotFound
			}
			pos += n.path.len()
			stack = append(stack, cur)
			cur = &n.children[0]
		case kindBranch:
			b := kp.bit(pos)
			pos++
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
		if gp.node.kind == kindExt && parent == &gp.node.children[0] {
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
	case kindLeaf, kindExt:
		n.path = bitPath(bit).concat(n.path)
		return ref{hash: n.hash(), node: n}, nil
	case kindBranch:
		ext, err := t.alloc(&node{kind: kindExt, path: bitPath(bit), children: [2]ref{sib}})
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
	if err := t.materialise(&ext.children[0]); err != nil {
		return err
	}
	child := t.ensureOwned(&ext.children[0])
	if child == nil {
		return nil
	}
	switch child.kind {
	case kindLeaf, kindExt:
		child.path = ext.path.concat(child.path)
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
			out = append(out, prefix.concat(n.path).b)
		case kindExt:
			walk(n.children[0], prefix.concat(n.path))
		case kindBranch:
			walk(n.children[0], prefix.concat(bitPath(0)))
			walk(n.children[1], prefix.concat(bitPath(1)))
		}
	}
	walk(root, path{})
	return out
}
