package trie

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

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
// Nodes are fixed-size cells in an arena the trie owns (see arena.go),
// referring to each other by index. Trie is a copy-on-write versioned
// store: Snapshot freezes the current contents as an O(1) version handle,
// and later mutations path-copy any cell shared with a retained version
// instead of editing it in place. Cells reachable from a retained version
// are therefore immutable; a cell no retained root reaches returns to the
// free list, and later writes reuse it.
//
// A write only marks the slots it changed, and their ancestors, dirty.
// settle hashes each dirty cell once, at the first read that needs a
// hash: Root, Snapshot, Prove, FlushRoot, and the collapse of a saturated
// subtree (the sealed slot keeps the subtree's hash).
//
// Mutations are not safe for concurrent use — the Guest Contract serialises
// writes the same way the Solana runtime serialises writes to an account —
// but Views of already-snapshotted versions may be read concurrently with
// head mutations (see View for the contract).
type Trie struct {
	root slot

	nodeCount   int // live (unsealed, allocated) nodes in the head version
	leafCount   int // live (unsealed) leaves, maintained so Len is O(1)
	sealedCount int // slots currently marked sealed
	maxNodes    int // 0 = unlimited, < 0 = no room at all

	// Cumulative counters used by the storage experiments. They describe
	// the logical head version only: copy-on-write copies are neither
	// allocations nor frees in the storage-deposit model, because the
	// modelled 10 MiB account holds exactly the head — retained versions
	// are the off-chain RPC layer's history, not on-chain storage.
	totalAllocs int
	totalFrees  int

	// rev is the current write generation, which Snapshot bumps (see
	// cell.head). fresh counts the cells created, path-copied or first
	// written in the current generation, for the shared-node telemetry
	// ratio; hashes counts the cells settle has hashed.
	rev    uint64
	fresh  int
	hashes int

	// cells and vals are the arena: the nodes, and the value bytes of the
	// leaves that hold them, one record per leaf. pub is their page tables
	// as Views read them, republished whenever either grows.
	cells pool[cell]
	vals  pool[[]byte]
	pub   atomic.Pointer[tables]

	// mu orders Views against the reclamation of their cells: versions is
	// written (Snapshot, Release, EvictVersion, RestoreVersion) under
	// the write lock, and a View reads under the read lock, so the cells a
	// released or evicted version alone reached go back on the free list
	// only while no View is reading them.
	mu       sync.RWMutex
	versions map[Version]slot

	// stackScratch backs the ancestor stack of the current mutation
	// (Set/Seal/Delete). It relies on writes being serialised; the
	// read-only walkers (lookupLeaf, proveRef) never touch it, so
	// concurrent Views of retained versions stay safe.
	stackScratch []*slot

	// ns is the optional content-addressed node backend (see nodesource.go).
	// nil means every node lives in the arena and evicted slots are
	// impossible.
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
func (t *Trie) Root() cryptoutil.Hash {
	t.settle(&t.root)
	return t.root.hash
}

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

// writeRev returns the current write generation, repairing a zero
// (zero-constructed) trie so generation 0 — the one faulted-in cells
// carry — never marks a cell as written in the current one.
func (t *Trie) writeRev() uint64 {
	if t.rev == 0 {
		t.rev = 1
	}
	return t.rev
}

// gen returns the current write generation as cells record it: its low
// 29 bits, which only the shared-node ratio reads.
func (t *Trie) gen() uint32 { return uint32(t.writeRev()) & (1<<(32-genShift) - 1) }

// reserve fails with ErrFull unless n more nodes fit the arena. An
// operation that allocates more than once reserves its net growth before
// it touches anything, so a full arena never leaves it half applied.
func (t *Trie) reserve(n int) error {
	if t.maxNodes != 0 && t.nodeCount+n > t.maxNodes {
		return ErrFull
	}
	return nil
}

// cell returns the arena cell a live or dirty slot refers to.
func (t *Trie) cell(s *slot) *cell { return t.cells.at(s.index()) }

// place stores c in a free cell and returns its index. It counts nothing:
// take does, for the cells that are new head nodes.
func (t *Trie) place(c cell) uint32 {
	i, grew := t.cells.alloc()
	*t.cells.at(i) = c
	if grew {
		t.publish()
	}
	return i
}

// publish hands Views the current page tables.
func (t *Trie) publish() {
	t.pub.Store(&tables{cells: t.cells.pages, vals: t.vals.pages})
}

// take places c as a new head node of the current generation, referred to
// by the one slot the caller installs, and counts it into the arena; the
// caller has reserved the room.
func (t *Trie) take(c cell) (uint32, *cell) {
	c.setGen(t.gen())
	c.refs = 1
	i := t.place(c)
	t.nodeCount++
	t.totalAllocs++
	t.fresh++
	return i, t.cells.at(i)
}

// forget counts a node out of the head.
func (t *Trie) forget() {
	t.nodeCount--
	t.totalFrees++
}

// ref counts one more reference to the cell s refers to, if any.
func (t *Trie) ref(s slot) {
	if s.inArena() {
		t.cell(&s).refs++
	}
}

// drop removes one reference to the cell s refers to, if any. A cell left
// with none is freed, with its value record and its references to its
// children: a subtree no retained root reaches goes back on the free list.
func (t *Trie) drop(s slot) {
	if !s.inArena() {
		return
	}
	c := t.cell(&s)
	if c.refs--; c.refs > 0 {
		return
	}
	switch c.kind() {
	case kindLeaf:
		t.keep(c, nil)
	case kindBranch:
		t.drop(c.kids[0])
		t.drop(c.kids[1])
	case kindExt:
		t.drop(c.kids[0])
	}
	t.cells.release(s.index())
}

// keep points leaf c's value record at value; nil frees the record. c must
// be the head's own, and so is its record.
func (t *Trie) keep(c *cell, value []byte) {
	switch {
	case value == nil:
		if c.holdsValue() {
			i := c.kids[0].index()
			*t.vals.at(i) = nil
			t.vals.release(i)
			c.kids[0].tag = 0
		}
	case c.holdsValue():
		*t.vals.at(c.kids[0].index()) = value
	default:
		i, grew := t.vals.alloc()
		*t.vals.at(i) = value
		if grew {
			t.publish()
		}
		c.kids[0].tag = stateTag(slotLive, i)
	}
}

// own returns the cell cur refers to, ready for the head to mutate. A cell
// only cur refers to is the head's alone and is edited in place; one that
// a retained version still reaches is path-copied first. The copy is
// content- and hash-identical, so taking ownership of a whole descent path
// is safe even when the operation later fails. Copies do not move the
// storage-deposit counters: the head holds the same logical node either
// way. The first write to a cell since the last snapshot, copy or not,
// counts toward fresh.
func (t *Trie) own(cur *slot) *cell {
	c := t.cell(cur)
	g := t.gen()
	if c.refs == 1 {
		if c.gen() != g {
			c.setGen(g)
			t.fresh++
		}
		return c
	}
	i := t.place(*c)
	cp := t.cells.at(i)
	cp.setGen(g)
	cp.refs = 1
	c.refs--
	t.fresh++
	switch cp.kind() {
	case kindLeaf:
		if cp.holdsValue() {
			cp.kids[0].tag = 0
			t.keep(cp, *t.vals.at(c.kids[0].index()))
		}
	case kindBranch:
		t.ref(cp.kids[0])
		t.ref(cp.kids[1])
	case kindExt:
		t.ref(cp.kids[0])
	}
	cur.tag = stateTag(cur.state(), i)
	return cp
}

// holds reports whether leaf c holds the key kp, whose bits from pos on
// remain after the descent to c.
func (c *cell) holds(kp *path, pos int) bool {
	p := c.path()
	return pos+p.len() == keyBits && p.matchLen(kp, pos) == p.len()
}

// mutStack returns the reusable (empty) ancestor stack for a mutation. Its
// capacity covers the maximum possible descent depth, so appends never
// reallocate.
func (t *Trie) mutStack() []*slot {
	if t.stackScratch == nil {
		t.stackScratch = make([]*slot, 0, keyBits)
	}
	return t.stackScratch[:0]
}

// markDirty marks a live slot's hash stale.
func (s *slot) markDirty() { s.tag = stateTag(slotDirty, s.index()) }

// touch marks the ancestors of a changed slot dirty, deepest first, up to
// the first one an earlier write left dirty: its ancestors are dirty
// already.
func touch(stack []*slot) {
	for i := len(stack) - 1; i >= 0 && stack[i].state() != slotDirty; i-- {
		stack[i].markDirty()
	}
}

// settle hashes every dirty cell under s, children first, each once, and
// leaves s clean.
func (t *Trie) settle(s *slot) {
	if s.state() != slotDirty {
		return
	}
	c := t.cell(s)
	switch c.kind() {
	case kindBranch:
		t.settle(&c.kids[0])
		t.settle(&c.kids[1])
	case kindExt:
		t.settle(&c.kids[0])
	}
	s.hash = c.hash()
	s.tag = stateTag(slotLive, s.index())
	t.hashes++
}

// newLeaf takes a leaf holding the value hash h and, when the caller has
// them, its bytes, and returns the dirty slot that refers to it.
func (t *Trie) newLeaf(p path, h cryptoutil.Hash, value []byte) slot {
	i, c := t.take(leafCell(p, h, false))
	t.keep(c, value)
	return slot{tag: stateTag(slotDirty, i)}
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
// bytes in the leaf's record, so Value reads them back from this version
// and every version snapshotted before the key changes again.
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
		if cur.sealed() {
			return ErrSealed
		}
		if err := t.materialise(cur); err != nil {
			return err
		}
		if !cur.inArena() {
			if err := t.reserve(1); err != nil {
				return err
			}
			*cur = t.newLeaf(kp.slice(pos, keyBits), h, value)
			t.leafCount++
			touch(stack)
			return nil
		}
		c := t.own(cur)
		switch c.kind() {
		case kindLeaf:
			p := c.path()
			m := p.matchLen(&kp, pos)
			if m == p.len() && pos+m == keyBits {
				if c.sealed() {
					// Double-delivery guard (Alg. 1 line 37): a sealed
					// key can never be written again.
					return ErrSealed
				}
				c.kids[0].hash = h
				t.keep(c, value)
				cur.markDirty()
				touch(stack)
				return nil
			}
			if err := t.splitLeaf(cur, c, &kp, pos, h, value, m); err != nil {
				return err
			}
			touch(stack)
			return nil
		case kindExt:
			p := c.path()
			m := p.matchLen(&kp, pos)
			if m == p.len() {
				pos += m
				stack = append(stack, cur)
				cur = &c.kids[0]
				continue
			}
			if err := t.splitExt(cur, c, &kp, pos, h, value, m); err != nil {
				return err
			}
			touch(stack)
			return nil
		case kindBranch:
			if pos == keyBits {
				return fmt.Errorf("trie: internal: key exhausted at branch")
			}
			b := kp.bit(pos)
			pos++
			stack = append(stack, cur)
			cur = &c.kids[b]
		default:
			return fmt.Errorf("trie: internal: invalid node kind %d", c.kind())
		}
	}
}

// splitLeaf replaces the leaf old, which cur refers to, with a structure
// distinguishing it from the new key's leaf (h, value), which holds the
// key's remainder after bit pos+m of kp. m is the common prefix length;
// because keys are fixed length, both remainders are non-empty and differ
// at bit m.
func (t *Trie) splitLeaf(cur *slot, old *cell, kp *path, pos int, h cryptoutil.Hash, value []byte, m int) error {
	// The new leaf and the branch, plus an extension above them when the
	// two keys share a prefix.
	grow := 2
	if m > 0 {
		grow = 3
	}
	if err := t.reserve(grow); err != nil {
		return err
	}
	leaf := t.newLeaf(kp.slice(pos+m+1, keyBits), h, value)
	bi, br := t.take(cell{head: cellHead(kindBranch, false)})
	// Reuse the old leaf's cell with a shortened path.
	p := old.path()
	br.kids[p.bit(m)] = slot{tag: stateTag(slotDirty, cur.index())}
	old.setPath(p.slice(m+1, p.len()))
	br.kids[kp.bit(pos+m)] = leaf
	t.leafCount++
	t.branchOff(cur, bi, kp, pos, m)
	return nil
}

// branchOff installs a split's new branch (cell bi) at cur, under an
// extension over the m bits of kp from pos on that the two keys share, if
// any.
func (t *Trie) branchOff(cur *slot, bi uint32, kp *path, pos, m int) {
	br := slot{tag: stateTag(slotDirty, bi)}
	if m == 0 {
		*cur = br
		return
	}
	ei, ext := t.take(cell{kids: [2]slot{br}, head: cellHead(kindExt, false)})
	ext.setPath(kp.slice(pos, pos+m))
	*cur = slot{tag: stateTag(slotDirty, ei)}
}

// splitExt replaces the extension old, which cur refers to, so the new
// key's leaf (h, value) can branch off at bit m of the extension's path.
func (t *Trie) splitExt(cur *slot, old *cell, kp *path, pos int, h cryptoutil.Hash, value []byte, m int) error {
	p := old.path()
	oldRest := p.len() - m // >= 1 bit

	// The new leaf and the branch, plus an extension above them when the
	// key shares a prefix with the old one — unless the old extension has
	// a single bit left: the branch absorbs it, and the cell it frees
	// pays for the new extension.
	grow := 2
	if m > 0 && oldRest > 1 {
		grow = 3
	}
	if err := t.reserve(grow); err != nil {
		return err
	}
	leaf := t.newLeaf(kp.slice(pos+m+1, keyBits), h, value)
	bi, br := t.take(cell{head: cellHead(kindBranch, false)})

	// The old extension's child goes under its bit m, via a shortened
	// extension if bits remain.
	if oldRest == 1 {
		br.kids[p.bit(m)] = old.kids[0]
		t.ref(old.kids[0])
		t.forget()
		t.drop(*cur)
	} else {
		br.kids[p.bit(m)] = slot{tag: stateTag(slotDirty, cur.index())}
		old.setPath(p.slice(m+1, p.len()))
	}
	br.kids[kp.bit(pos+m)] = leaf
	t.leafCount++
	t.branchOff(cur, bi, kp, pos, m)
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
// slot. It is purely read-only — slots are walked by value and faulted
// nodes are never installed in the arena — which is what lets Views of
// retained versions share it with the live head, race-free.
func lookupLeaf(rs resolver, root slot, key [KeySize]byte) (*cell, error) {
	kp := keyToPath(key)
	pos := 0
	cur := root
	for {
		switch cur.state() {
		case slotSealed:
			return nil, ErrSealed
		case slotEmpty:
			return nil, ErrNotFound
		}
		c, err := rs.resolve(cur)
		if err != nil {
			return nil, err
		}
		switch c.kind() {
		case kindLeaf:
			if c.holds(&kp, pos) {
				if c.sealed() {
					return nil, ErrSealed
				}
				return c, nil
			}
			return nil, ErrNotFound
		case kindExt:
			p := c.path()
			if p.matchLen(&kp, pos) < p.len() {
				return nil, ErrNotFound
			}
			pos += p.len()
			cur = c.kids[0]
		case kindBranch:
			cur = c.kids[kp.bit(pos)]
			pos++
		default:
			return nil, fmt.Errorf("trie: internal: invalid node kind %d", c.kind())
		}
	}
}

// lookupHash returns the value hash of key's leaf under root.
func lookupHash(rs resolver, root slot, key [KeySize]byte) (cryptoutil.Hash, error) {
	c, err := lookupLeaf(rs, root, key)
	if err != nil {
		return cryptoutil.ZeroHash, err
	}
	return c.valueHash(), nil
}

// lookupValue returns the value bytes of key's leaf under root: the leaf's
// own record, or the NodeSource's record under the leaf's value hash.
func lookupValue(rs resolver, root slot, key [KeySize]byte) ([]byte, error) {
	c, err := lookupLeaf(rs, root, key)
	if err != nil {
		return nil, err
	}
	if c.holdsValue() {
		i := c.kids[0].index()
		return rs.vals[i>>pageShift][i&pageMask], nil
	}
	return rs.loadValue(c.valueHash())
}

// Has reports whether key is present (and unsealed).
func (t *Trie) Has(key [KeySize]byte) (bool, error) {
	return present(t.Get(key))
}

// present turns a lookup's answer into Has's.
func present(_ cryptoutil.Hash, err error) (bool, error) {
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
// cells are freed — this is the disk-reclamation mechanism that bounds the
// guest blockchain's storage.
func (t *Trie) Seal(key [KeySize]byte) error {
	kp := keyToPath(key)
	pos := 0
	cur := &t.root
	stack := t.mutStack()

	for {
		if cur.sealed() {
			return ErrSealed
		}
		if err := t.materialise(cur); err != nil {
			return err
		}
		if !cur.inArena() {
			return ErrNotFound
		}
		c := t.own(cur)
		switch c.kind() {
		case kindLeaf:
			if !c.holds(&kp, pos) {
				return ErrNotFound
			}
			if c.sealed() {
				return ErrSealed
			}
			c.head |= sealedFlag
			t.keep(c, nil)
			t.leafCount--
			t.collapseSaturated(stack)
			return nil
		case kindExt:
			p := c.path()
			if p.matchLen(&kp, pos) < p.len() {
				return ErrNotFound
			}
			pos += p.len()
			stack = append(stack, cur)
			cur = &c.kids[0]
		case kindBranch:
			b := kp.bit(pos)
			pos++
			stack = append(stack, cur)
			cur = &c.kids[b]
		default:
			return fmt.Errorf("trie: internal: invalid node kind %d", c.kind())
		}
	}
}

// saturated reports whether the slot's entire key range is sealed: either
// a sealed slot, or a zero-length-path sealed leaf stub (which covers
// exactly one key).
func (t *Trie) saturated(s *slot) bool {
	if s.sealed() {
		return true
	}
	if !s.inArena() {
		return false
	}
	c := t.cell(s)
	return c.kind() == kindLeaf && c.sealed() && c.kids[1].tag == 0 // a zero-length path
}

// collapseSaturated walks ancestors from deepest to shallowest, replacing
// any branch whose both children are saturated with a sealed slot and
// freeing the cells. Extensions never collapse: their path bits mean
// sibling keys were never inserted, so the covered range is not saturated.
// Hashes never change, but the sealed slot keeps the branch's, so a dirty
// branch is settled first.
func (t *Trie) collapseSaturated(stack []*slot) {
	for i := len(stack) - 1; i >= 0; i-- {
		r := stack[i]
		c := t.cell(r)
		if c.kind() != kindBranch {
			return
		}
		// An evicted sibling may hide a saturated stub; fault it in before
		// deciding. A load failure only skips the (optional) collapse.
		for j := range c.kids {
			if t.materialise(&c.kids[j]) != nil {
				return
			}
		}
		if !t.saturated(&c.kids[0]) || !t.saturated(&c.kids[1]) {
			return
		}
		t.settle(r)
		for j := range c.kids {
			if c.kids[j].inArena() {
				t.forget()
			} else {
				t.sealedCount--
			}
		}
		t.forget()
		t.drop(*r)
		*r = hashOnly(r.hash, true)
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
		if cur.sealed() {
			return ErrSealed
		}
		if err := t.materialise(cur); err != nil {
			return err
		}
		if !cur.inArena() {
			return ErrNotFound
		}
		c := t.own(cur)
		switch c.kind() {
		case kindLeaf:
			if !c.holds(&kp, pos) {
				return ErrNotFound
			}
			if c.sealed() {
				return ErrSealed
			}
			return t.deleteLeaf(cur, stack)
		case kindExt:
			p := c.path()
			if p.matchLen(&kp, pos) < p.len() {
				return ErrNotFound
			}
			pos += p.len()
			stack = append(stack, cur)
			cur = &c.kids[0]
		case kindBranch:
			b := kp.bit(pos)
			pos++
			stack = append(stack, cur)
			cur = &c.kids[b]
		default:
			return fmt.Errorf("trie: internal: invalid node kind %d", c.kind())
		}
	}
}

// deleteLeaf removes the leaf at cur and restructures: the leaf's parent
// branch collapses into its sibling (possibly merging extension and leaf
// paths); an extension above is merged.
func (t *Trie) deleteLeaf(cur *slot, stack []*slot) error {
	// cur's parent is a branch or the root: an extension always leads to
	// a branch.
	if len(stack) == 0 {
		// Leaf at root.
		t.forget()
		t.leafCount--
		t.drop(*cur)
		*cur = slot{}
		return nil
	}
	parent := stack[len(stack)-1]
	pc := t.cell(parent)

	if pc.kind() == kindExt {
		// An extension leading directly to a leaf cannot exist by
		// construction, but guard against it to keep Delete total.
		return fmt.Errorf("trie: internal: extension above leaf")
	}

	// Parent is a branch: identify the sibling. The sibling gets
	// restructured by mergeDown, so take ownership of it too — it is not on
	// the descent path and may still be shared with a retained version.
	var side byte
	if &pc.kids[1] == cur {
		side = 1
	}
	sib := &pc.kids[1-side]
	if sib.sealed() {
		return ErrSealed
	}
	if err := t.materialise(sib); err != nil {
		return err
	}
	t.own(sib)

	// Replace the branch with "sibling prefixed by its branch bit". Build
	// the replacement before freeing anything so an allocation failure
	// leaves the trie untouched.
	merged, err := t.mergeDown(1-side, *sib)
	if err != nil {
		return err
	}
	t.forget()
	t.forget()
	t.leafCount--
	t.ref(*sib) // merged refers to it now; dropping the branch frees the leaf
	t.drop(*parent)
	*parent = merged
	stack = stack[:len(stack)-1]

	// If the new parent slot's parent is an extension, merge the two
	// paths.
	if len(stack) > 0 {
		gp := stack[len(stack)-1]
		if g := t.cell(gp); g.kind() == kindExt && parent == &g.kids[0] {
			t.mergeExtChild(gp)
			stack = stack[:len(stack)-1]
		}
	}
	touch(stack)
	return nil
}

// mergeDown produces the slot that replaces a deleted branch: the surviving
// child sib, the head's own, prefixed with its branch bit. Leaf and
// extension children absorb the bit into their path; a branch child gets a
// fresh 1-bit extension.
func (t *Trie) mergeDown(bit byte, sib slot) (slot, error) {
	c := t.cell(&sib)
	switch c.kind() {
	case kindLeaf, kindExt:
		c.setPath(bitPath(bit).concat(c.path()))
		return slot{tag: stateTag(slotDirty, sib.index())}, nil
	case kindBranch:
		if err := t.reserve(1); err != nil {
			return slot{}, err
		}
		i, ext := t.take(cell{kids: [2]slot{sib}, head: cellHead(kindExt, false)})
		ext.setPath(bitPath(bit))
		return slot{tag: stateTag(slotDirty, i)}, nil
	default:
		return slot{}, fmt.Errorf("trie: internal: invalid node kind %d", c.kind())
	}
}

// mergeExtChild merges the extension gp refers to with its child, which
// mergeDown has just made a leaf or an extension of the head's own,
// concatenating paths.
func (t *Trie) mergeExtChild(gp *slot) {
	ext := t.cell(gp)
	child := ext.kids[0]
	c := t.cell(&child)
	ep := ext.path()
	c.setPath(ep.concat(c.path()))
	t.forget()
	t.ref(child)
	t.drop(*gp)
	*gp = slot{tag: stateTag(slotDirty, child.index())}
}

// Snapshot freezes the current contents as a new version and returns its
// handle. It settles the head and records the root slot, whose cell the
// version now refers to as well, so every future mutation path-copies the
// cells it touches instead of editing anything reachable from the frozen
// root. The call is O(1) apart from settling what the head wrote since
// the last one.
func (t *Trie) Snapshot() Version {
	t.settle(&t.root)
	v := Version(t.writeRev())
	t.ref(t.root)
	t.mu.Lock()
	if t.versions == nil {
		t.versions = make(map[Version]slot)
	}
	t.versions[v] = t.root
	t.mu.Unlock()
	t.rev++
	t.fresh = 0
	return v
}

// At returns a read-only view of a retained version.
func (t *Trie) At(v Version) (*View, error) {
	r, err := t.version(v)
	if err != nil {
		return nil, err
	}
	return &View{t: t, version: v, root: r.hash}, nil
}

// version returns the root slot of retained version v.
func (t *Trie) version(v Version) (slot, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	r, ok := t.versions[v]
	if !ok {
		return slot{}, unknownVersion(v)
	}
	return r, nil
}

func unknownVersion(v Version) error { return fmt.Errorf("%w: %d", ErrUnknownVersion, v) }

// Release drops a retained version. The cells only it reached go back on
// the free list: the head and the remaining versions hold references to
// everything they share. Releasing an unknown version is a no-op.
func (t *Trie) Release(v Version) {
	t.mu.Lock()
	defer t.mu.Unlock()
	r, ok := t.versions[v]
	if !ok {
		return
	}
	delete(t.versions, v)
	t.drop(r)
}

// RetainedVersions returns how many snapshot versions are currently held.
func (t *Trie) RetainedVersions() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.versions)
}

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
