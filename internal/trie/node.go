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

// ref is a reference to a child node as stored inside its parent: the
// child's hash plus either a live pointer or a "sealed" marker. A sealed
// reference keeps contributing its hash to the parent (so the root
// commitment is unchanged) but the node itself has been freed from storage
// and can never be accessed again.
type ref struct {
	hash   cryptoutil.Hash
	node   *node // nil when empty or sealed
	sealed bool
}

// node is a trie node. Exactly one of the three shapes is active, selected
// by kind:
//
//   - kindLeaf:   path = remaining key bits, children[0].hash = the value
//     hash, value = the value bytes (nil when the leaf does not hold them)
//   - kindBranch: children[0] and children[1], both non-empty
//   - kindExt:    path = shared prefix bits (>=1), children[0] = the child
//
// The path is held inline in its packed form (see path), so a node is one
// heap object of at most 176 bytes: kind, sealed and the 34-byte path, the
// value bytes' slice header, two 48-byte refs and the write generation. A
// leaf keeps its value hash in child slot 0, which leaves never use for a
// child, and an extension keeps its one child there rather than in a
// third ref.
type node struct {
	kind nodeKind

	// sealed marks a leaf as sealed (§III-A): its value can never be read
	// or modified again, but the leaf's structure (path + value hash) is
	// retained as a stub so that future keys can still branch off next to
	// it. A stub drops its value bytes. Stubs are freed — and replaced by
	// an opaque sealed ref in the parent — once the subtree they belong to
	// is *saturated*: every key under the subtree's prefix has been sealed.
	// With the sequential sequence-number keys the Guest Contract uses for
	// receipts, seals saturate aligned blocks behind the delivery frontier,
	// so storage stays bounded exactly as §III-A claims while fresh
	// sequence numbers always remain insertable.
	sealed bool

	path path

	// value is a leaf's value bytes, committed to by children[0].hash. It
	// is set by Put and never modified in place, so path copies share it;
	// a leaf written by Set, faulted in from a NodeSource or sealed holds
	// none, and a read fetches them from the NodeSource by hash.
	value    []byte
	children [2]ref

	// rev is the trie write generation that created this physical node
	// (allocation or copy-on-write copy). A node is mutable only while
	// its generation is the trie's current one; Snapshot bumps the
	// generation, freezing everything reachable from the snapshotted root.
	// Mutations that land on a frozen node path-copy it first, so retained
	// versions are structurally shared and never change.
	rev uint64
}

// newLeaf returns a leaf holding the value hash h and, when the caller has
// them, its bytes.
func newLeaf(p path, h cryptoutil.Hash, value []byte) *node {
	return &node{kind: kindLeaf, path: p, value: value, children: [2]ref{{hash: h}}}
}

// valueHash returns a leaf's value hash.
func (n *node) valueHash() cryptoutil.Hash { return n.children[0].hash }

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

// hash computes the node's commitment from its current contents. Children
// hashes are read from the refs, so deeper nodes must be rehashed first.
// Every node hash — the rehash spine, decodeNode's content check and proof
// verification — goes through leafHash, extHash and branchHash, whose
// preimages are built on the stack: hashing allocates nothing.
func (n *node) hash() cryptoutil.Hash {
	switch n.kind {
	case kindLeaf:
		return leafHash(&n.path, n.valueHash())
	case kindBranch:
		return branchHash(n.children[0].hash, n.children[1].hash)
	case kindExt:
		return extHash(&n.path, n.children[0].hash)
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
