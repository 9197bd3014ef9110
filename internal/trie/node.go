package trie

import (
	"crypto/sha256"

	"repro/internal/cryptoutil"
)

// Node kinds. The hash of a node is domain-separated by kind so that a leaf
// can never be confused with a branch or extension (see [25] in the paper on
// proof forgery in Merkle-Patricia tries).
const (
	tagLeaf   byte = 0x00
	tagBranch byte = 0x01
	tagExt    byte = 0x02
)

type nodeKind uint8

const (
	kindLeaf nodeKind = iota + 1
	kindBranch
	kindExt
)

// slot is a reference as a parent cell (or a root) holds it: the child's
// 32-byte hash plus a u32 whose top three bits are the slot's state and
// whose other bits index the child's cell in the arena (see arena.go). A
// sealed slot keeps contributing its hash to the parent, so the root
// commitment is unchanged, but the subtree behind it has been freed and
// can never be accessed again; an evicted one names a node the NodeSource
// holds. A dirty slot's hash is stale: a write changed the subtree and
// settle has not rehashed it yet, so each of its ancestors is dirty too.
//
// A leaf reuses the shape twice: its first slot holds the value hash and,
// when live, the index of the value bytes' record; its second holds the
// leaf's packed path and bit length (as does an extension's).
type slot struct {
	hash cryptoutil.Hash
	tag  uint32
}

// Slot states, in a slot tag's top three bits.
const (
	slotEmpty   uint32 = iota // no subtree: the zero slot
	slotLive                  // a cell in the arena, its hash current
	slotDirty                 // a cell in the arena, its hash stale
	slotSealed                // hash only: the subtree was freed
	slotEvicted               // hash only: the node lives in the NodeSource

	stateShift = 29
	indexMask  = 1<<stateShift - 1
)

func (s *slot) state() uint32 { return s.tag >> stateShift }

// index returns the arena index a live or dirty slot refers to (for a
// leaf's value slot, its record's).
func (s *slot) index() uint32 { return s.tag & indexMask }

// inArena reports whether the slot refers to a cell of the arena.
func (s *slot) inArena() bool { st := s.state(); return st == slotLive || st == slotDirty }

func (s *slot) sealed() bool { return s.state() == slotSealed }

// stateTag returns the tag of a slot in state st referring to index i.
func stateTag(st, i uint32) uint32 { return st<<stateShift | i }

// hashOnly returns the slot of a subtree known only by its commitment:
// sealed, or else evicted — or empty when there is no commitment at all.
func hashOnly(h cryptoutil.Hash, sealed bool) slot {
	switch {
	case sealed:
		return slot{hash: h, tag: stateTag(slotSealed, 0)}
	case h.IsZero():
		return slot{}
	default:
		return slot{hash: h, tag: stateTag(slotEvicted, 0)}
	}
}

// cell is one trie node as the arena stores it: the paper's fixed 72-byte
// slot (§V-D) — two 36-byte slots — plus a u32 header and a u32 reference
// count, 80 bytes that hold no Go pointer, so the collector never scans
// them. Exactly one of three shapes is active, selected by kind:
//
//   - kindLeaf:   kids[0] = the value hash (live when the leaf holds the
//     value bytes' record), kids[1] = the path (remaining key bits)
//   - kindBranch: kids[0] and kids[1], both non-empty
//   - kindExt:    kids[0] = the child, kids[1] = the path (shared prefix
//     bits, >= 1)
type cell struct {
	kids [2]slot

	// head holds the kind, the sealed flag and the write generation in
	// which the head last created or wrote the cell (the shared-node ratio
	// counts the first write in each). A cell is mutable only while the
	// head alone refers to it (refs == 1); one a retained version still
	// reaches is path-copied first, so retained versions are structurally
	// shared and never change, and Views read their cells race-free.
	//
	// A sealed leaf (§III-A) can never be read or modified again, but its
	// structure (path + value hash) is retained as a stub so that future
	// keys can still branch off next to it. A stub drops its value bytes.
	// Stubs are freed — and replaced by a sealed slot in the parent — once
	// the subtree they belong to is *saturated*: every key under the
	// subtree's prefix has been sealed. With the sequential sequence-number
	// keys the Guest Contract uses for receipts, seals saturate aligned
	// blocks behind the delivery frontier, so storage stays bounded exactly
	// as §III-A claims while fresh sequence numbers always remain
	// insertable.
	head uint32

	// refs counts the slots and roots (the head's, every retained
	// version's) that refer to this cell; at zero the cell returns to the
	// free list. Only the writer reads or writes it: Views never do, so
	// its changes on a shared cell race with nothing they read.
	refs uint32
}

// The bits of cell.head: kind, sealed, then the generation.
const (
	kindBits   = 3
	sealedFlag = 4
	genShift   = 3
)

func (c *cell) kind() nodeKind { return nodeKind(c.head & kindBits) }
func (c *cell) sealed() bool   { return c.head&sealedFlag != 0 }
func (c *cell) gen() uint32    { return c.head >> genShift }

// setGen moves the cell to write generation g, keeping kind and flags.
func (c *cell) setGen(g uint32) { c.head = c.head&(1<<genShift-1) | g<<genShift }

// cellHead returns the head word of a cell of kind k in generation 0.
func cellHead(k nodeKind, sealed bool) uint32 {
	h := uint32(k)
	if sealed {
		h |= sealedFlag
	}
	return h
}

// path returns a leaf's or extension's path.
func (c *cell) path() path {
	return path{b: c.kids[1].hash, n: uint16(c.kids[1].tag)}
}

func (c *cell) setPath(p path) { c.kids[1] = slot{hash: p.b, tag: uint32(p.n)} }

// valueHash returns a leaf's value hash.
func (c *cell) valueHash() cryptoutil.Hash { return c.kids[0].hash }

// holdsValue reports whether a leaf holds a record of its value bytes.
func (c *cell) holdsValue() bool { return c.kids[0].state() == slotLive }

// leafCell returns a leaf over path p with value hash h, holding no value
// record.
func leafCell(p path, h cryptoutil.Hash, sealed bool) cell {
	c := cell{kids: [2]slot{{hash: h}}, head: cellHead(kindLeaf, sealed)}
	c.setPath(p)
	return c
}

// maxPreimage is the largest node hash preimage: tag + 2-byte bit length
// + 32-byte packed path + 32-byte value/child hash (a branch's tag + two
// child hashes is one byte shorter).
const maxPreimage = 3 + KeySize + cryptoutil.HashSize

// leafHash computes the commitment of a leaf with the given remaining path
// and value.
func leafHash(p *path, value cryptoutil.Hash) cryptoutil.Hash {
	return pathedHash(tagLeaf, p, value)
}

// extHash computes the commitment of an extension node.
func extHash(p *path, child cryptoutil.Hash) cryptoutil.Hash {
	return pathedHash(tagExt, p, child)
}

// pathedHash digests the preimage a leaf or extension commits to:
// SHA-256(tag ‖ u16 bit length ‖ packed path ‖ h). The packed path is
// the node's own bytes, copied as they are.
func pathedHash(tag byte, p *path, h cryptoutil.Hash) cryptoutil.Hash {
	var buf [maxPreimage]byte
	b := append(buf[:0], tag, byte(p.n>>8), byte(p.n))
	b = append(b, p.packed()...)
	return sha256.Sum256(append(b, h[:]...))
}

// branchHash computes the commitment of a branch from its children hashes:
// SHA-256(tag ‖ left ‖ right).
func branchHash(left, right cryptoutil.Hash) cryptoutil.Hash {
	var buf [maxPreimage]byte
	b := append(buf[:0], tagBranch)
	b = append(b, left[:]...)
	return sha256.Sum256(append(b, right[:]...))
}

// hash computes the cell's commitment from its current contents. Children
// hashes are read from the slots, so deeper cells must be settled first.
// Every node hash — settle, decodeNode's content check and proof
// verification — goes through leafHash, extHash and branchHash, whose
// preimages are built on the stack: hashing allocates nothing.
func (c *cell) hash() cryptoutil.Hash {
	switch c.kind() {
	case kindLeaf:
		p := c.path()
		return leafHash(&p, c.valueHash())
	case kindBranch:
		return branchHash(c.kids[0].hash, c.kids[1].hash)
	case kindExt:
		p := c.path()
		return extHash(&p, c.kids[0].hash)
	default:
		panic("trie: invalid node kind")
	}
}

// storageBytes models the on-chain storage footprint of a node, mirroring
// the flat-node layout of the Solana deployment (§V-D): a fixed 72-byte slot
// per node (two 36-byte child slots for a branch; tag + path + hash
// otherwise). The 10 MiB account therefore holds ~145k nodes, i.e. >72k
// key-value pairs at the ~2 nodes/entry steady state the paper reports.
const storageBytes = 72
