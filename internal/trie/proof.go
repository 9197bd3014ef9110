package trie

import (
	"errors"
	"fmt"

	"repro/internal/cryptoutil"
)

// Proof errors.
var (
	// ErrBadProof is returned when a proof fails verification.
	ErrBadProof = errors.New("trie: proof verification failed")
)

// AscentItem is one step of the path from the proven node up to the root.
type AscentItem struct {
	// Kind distinguishes a branch step from an extension step.
	Kind AscentKind
	// Bit is the branch side the key descends into (branch steps only).
	Bit byte
	// Sibling is the other child's hash (branch steps only).
	Sibling cryptoutil.Hash
	// Path is the extension's bit path (extension steps only), packed.
	Path []byte
	// PathLen is the extension path length in bits.
	PathLen int
}

// AscentKind identifies the shape of an AscentItem.
type AscentKind uint8

// Ascent item kinds.
const (
	AscentBranch AscentKind = iota + 1
	AscentExt
)

// Proof proves membership or non-membership of a key against a root
// commitment (§II "Provable storage"). For membership, the statement is
// "key maps to value". For non-membership, the proof exhibits the node at
// which the key's path diverges, demonstrating no leaf for the key can
// exist under the root.
type Proof struct {
	// Membership is true for a proof of presence.
	Membership bool

	// Items lead from the terminal node up to the root (deepest first).
	Items []AscentItem

	// Terminal node description.
	//
	// For membership: a leaf; LeafPath holds the leaf's remaining path and
	// the verifier supplies the value.
	//
	// For non-membership one of three terminal shapes applies:
	//   - diverging leaf: LeafPath + LeafValue of the other key's leaf
	//   - diverging extension: ExtPath + ExtChild
	//   - empty trie / empty slot: no terminal (Items empty, root zero)
	LeafPath    []byte
	LeafPathLen int
	LeafValue   cryptoutil.Hash // non-membership diverging leaf only
	ExtPath     []byte
	ExtPathLen  int
	ExtChild    cryptoutil.Hash

	// terminal is the shape: Prove and UnmarshalBinary set it, and the
	// verifiers and MarshalBinary read only it.
	terminal terminalKind
}

type terminalKind uint8

const (
	terminalNone terminalKind = iota
	terminalLeaf
	terminalExt
)

// Prove constructs a membership or non-membership proof for key, depending
// on the key's presence. It fails with ErrSealed if the descent crosses a
// sealed reference: sealed data can neither be proven present nor absent.
func (t *Trie) Prove(key [KeySize]byte) (*Proof, error) {
	return proveRef(t.loader(), t.root, key)
}

// proveRef builds the proof from an arbitrary root reference. It is the
// shared read-only walker behind Trie.Prove and View.Prove, so proofs for a
// retained version are byte-identical to the ones the head produced when
// that version was current — including after the version was evicted to a
// node backend, because the faulted nodes re-hash to the same commitments.
// Refs are walked by value; faulted nodes are never installed into shared
// state, keeping concurrent Views race-free.
//
// The descent records the inner nodes it crosses, then fillProof builds
// the proof from them in exactly sized buffers.
func proveRef(rs resolver, root ref, key [KeySize]byte) (*Proof, error) {
	kp := keyToPath(key)
	var crossed [keyBits]*node // every crossing consumes at least one key bit
	depth, pos := 0, 0
	cur := root
	for {
		if cur.sealed {
			return nil, ErrSealed
		}
		if cur.node == nil && cur.hash.IsZero() {
			// Provably absent: empty trie or — impossible in a compressed
			// trie below the root — an empty slot.
			return fillProof(&kp, crossed[:depth], nil, false), nil
		}
		n, err := rs.resolve(cur)
		if err != nil {
			return nil, err
		}
		switch n.kind {
		case kindLeaf:
			member := n.holds(&kp, pos)
			if member && n.sealed {
				// A sealed key can be proven neither present nor absent;
				// the data backing either statement is gone.
				return nil, ErrSealed
			}
			return fillProof(&kp, crossed[:depth], n, member), nil
		case kindExt:
			if n.path.matchLen(&kp, pos) < n.path.len() {
				return fillProof(&kp, crossed[:depth], n, false), nil
			}
			pos += n.path.len()
			cur = n.children[0]
		case kindBranch:
			cur = n.children[kp.bit(pos)]
			pos++
		default:
			return nil, fmt.Errorf("trie: internal: invalid node kind %d", n.kind)
		}
		crossed[depth] = n
		depth++
	}
}

// fillProof builds the proof for key kp from the inner nodes the descent
// crossed (root first) and the node it stopped at: a leaf (the key's own
// when member), a diverging extension, or none for an empty slot. The
// items go into one exact-size slice, deepest first, and ownPaths copies
// the node paths they alias into one buffer.
func fillProof(kp *path, crossed []*node, term *node, member bool) *Proof {
	proof := &Proof{Membership: member, Items: make([]AscentItem, len(crossed))}
	pos := 0
	for i, n := range crossed {
		it := &proof.Items[len(crossed)-1-i]
		if n.kind == kindExt {
			*it = AscentItem{Kind: AscentExt, Path: n.path.packed(), PathLen: n.path.len()}
			pos += n.path.len()
			continue
		}
		b := kp.bit(pos)
		*it = AscentItem{Kind: AscentBranch, Bit: b, Sibling: n.children[1-b].hash}
		pos++
	}
	switch {
	case term == nil:
		proof.terminal = terminalNone
	case term.kind == kindLeaf:
		proof.terminal = terminalLeaf
		proof.LeafPath, proof.LeafPathLen = term.path.packed(), term.path.len()
		if !member {
			proof.LeafValue = term.value
		}
	default:
		proof.terminal = terminalExt
		proof.ExtPath, proof.ExtPathLen = term.path.packed(), term.path.len()
		proof.ExtChild = term.children[0].hash
	}
	proof.ownPaths()
	return proof
}

// VerifyMembership checks that proof demonstrates key ↦ value under root.
func VerifyMembership(root cryptoutil.Hash, key [KeySize]byte, value cryptoutil.Hash, proof *Proof) error {
	if proof == nil || !proof.Membership || proof.terminal != terminalLeaf {
		return fmt.Errorf("%w: not a membership proof", ErrBadProof)
	}
	if value.IsZero() {
		return fmt.Errorf("%w: zero value", ErrBadProof)
	}
	kp := keyToPath(key)
	prefixLen := ascentBits(proof.Items)
	leafPath, err := proofPath(proof.LeafPath, proof.LeafPathLen)
	if err != nil {
		return err
	}
	if prefixLen+leafPath.len() != keyBits {
		return fmt.Errorf("%w: path length mismatch", ErrBadProof)
	}
	if leafPath.matchLen(&kp, prefixLen) != leafPath.len() {
		return fmt.Errorf("%w: leaf path does not match key", ErrBadProof)
	}
	got, err := climb(leafHash(&leafPath, value), &kp, prefixLen, proof.Items)
	if err != nil {
		return err
	}
	if got != root {
		return fmt.Errorf("%w: root mismatch", ErrBadProof)
	}
	return nil
}

// VerifyNonMembership checks that proof demonstrates the absence of key
// under root.
func VerifyNonMembership(root cryptoutil.Hash, key [KeySize]byte, proof *Proof) error {
	if proof == nil || proof.Membership {
		return fmt.Errorf("%w: not a non-membership proof", ErrBadProof)
	}
	kp := keyToPath(key)
	prefixLen := ascentBits(proof.Items)

	var h cryptoutil.Hash
	switch proof.terminal {
	case terminalNone:
		if len(proof.Items) != 0 || !root.IsZero() {
			return fmt.Errorf("%w: empty-trie proof against non-empty root", ErrBadProof)
		}
		return nil
	case terminalLeaf:
		leafPath, err := proofPath(proof.LeafPath, proof.LeafPathLen)
		if err != nil {
			return err
		}
		if prefixLen+leafPath.len() != keyBits {
			return fmt.Errorf("%w: path length mismatch", ErrBadProof)
		}
		if leafPath.matchLen(&kp, prefixLen) == leafPath.len() {
			return fmt.Errorf("%w: leaf path equals key; key may be present", ErrBadProof)
		}
		if proof.LeafValue.IsZero() {
			return fmt.Errorf("%w: diverging leaf missing value", ErrBadProof)
		}
		h = leafHash(&leafPath, proof.LeafValue)
	case terminalExt:
		extPath, err := proofPath(proof.ExtPath, proof.ExtPathLen)
		if err != nil {
			return err
		}
		if prefixLen < 0 || prefixLen+extPath.len() > keyBits {
			return fmt.Errorf("%w: path overrun", ErrBadProof)
		}
		if extPath.matchLen(&kp, prefixLen) == extPath.len() {
			return fmt.Errorf("%w: extension matches key; key may be present", ErrBadProof)
		}
		h = extHash(&extPath, proof.ExtChild)
	default:
		return fmt.Errorf("%w: unknown terminal", ErrBadProof)
	}
	got, err := climb(h, &kp, prefixLen, proof.Items)
	if err != nil {
		return err
	}
	if got != root {
		return fmt.Errorf("%w: root mismatch", ErrBadProof)
	}
	return nil
}

// ascentBits counts the key bits consumed by the ascent items.
func ascentBits(items []AscentItem) int {
	n := 0
	for _, it := range items {
		switch it.Kind {
		case AscentBranch:
			n++
		case AscentExt:
			n += it.PathLen
		}
	}
	return n
}

// proofPath reads one of a proof's packed paths.
func proofPath(packed []byte, bits int) (path, error) {
	p, err := packedPath(packed, bits)
	if err != nil {
		return p, fmt.Errorf("%w: %w", ErrBadProof, err)
	}
	return p, nil
}

// climb recomputes the root from a terminal hash h, walking the ascent
// items (deepest first) and checking every consumed bit against the key
// kp's first prefixLen bits, deepest bits last.
func climb(h cryptoutil.Hash, kp *path, prefixLen int, items []AscentItem) (cryptoutil.Hash, error) {
	pos := prefixLen
	for _, it := range items {
		switch it.Kind {
		case AscentBranch:
			if pos < 1 {
				return cryptoutil.ZeroHash, fmt.Errorf("%w: ascent underflow", ErrBadProof)
			}
			pos--
			b := kp.bit(pos)
			if b != it.Bit {
				return cryptoutil.ZeroHash, fmt.Errorf("%w: branch bit mismatch", ErrBadProof)
			}
			if b == 0 {
				h = branchHash(h, it.Sibling)
			} else {
				h = branchHash(it.Sibling, h)
			}
		case AscentExt:
			if pos < it.PathLen {
				return cryptoutil.ZeroHash, fmt.Errorf("%w: ascent underflow", ErrBadProof)
			}
			p, err := proofPath(it.Path, it.PathLen)
			if err != nil {
				return cryptoutil.ZeroHash, err
			}
			pos -= it.PathLen
			if p.matchLen(kp, pos) != p.len() {
				return cryptoutil.ZeroHash, fmt.Errorf("%w: extension path mismatch", ErrBadProof)
			}
			h = extHash(&p, h)
		default:
			return cryptoutil.ZeroHash, fmt.Errorf("%w: unknown ascent kind", ErrBadProof)
		}
	}
	if pos != 0 {
		return cryptoutil.ZeroHash, fmt.Errorf("%w: %d unconsumed key bits", ErrBadProof, pos)
	}
	return h, nil
}
