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
func proveRef(rs resolver, root ref, key [KeySize]byte) (*Proof, error) {
	remaining := keyToPath(key)
	cur := root
	proof := &Proof{}

	for {
		if cur.sealed {
			return nil, ErrSealed
		}
		if cur.node == nil && cur.hash.IsZero() {
			// Provably absent: empty trie or — impossible in a compressed
			// trie below the root — an empty slot.
			proof.Membership = false
			proof.terminal = terminalNone
			reverseItems(proof.Items)
			return proof, nil
		}
		n, err := rs.resolve(cur)
		if err != nil {
			return nil, err
		}
		switch n.kind {
		case kindLeaf:
			if n.path.equal(remaining) {
				if n.sealed {
					// A sealed key can be proven neither present nor
					// absent; the data backing either statement is gone.
					return nil, ErrSealed
				}
				proof.Membership = true
				proof.terminal = terminalLeaf
				proof.LeafPath = n.path.pack()
				proof.LeafPathLen = len(n.path)
			} else {
				proof.Membership = false
				proof.terminal = terminalLeaf
				proof.LeafPath = n.path.pack()
				proof.LeafPathLen = len(n.path)
				proof.LeafValue = n.value
			}
			reverseItems(proof.Items)
			return proof, nil
		case kindExt:
			c := commonPrefixLen(n.path, remaining)
			if c < len(n.path) {
				proof.Membership = false
				proof.terminal = terminalExt
				proof.ExtPath = n.path.pack()
				proof.ExtPathLen = len(n.path)
				proof.ExtChild = n.child.hash
				reverseItems(proof.Items)
				return proof, nil
			}
			proof.Items = append(proof.Items, AscentItem{
				Kind:    AscentExt,
				Path:    n.path.pack(),
				PathLen: len(n.path),
			})
			remaining = remaining[c:]
			cur = n.child
		case kindBranch:
			b := remaining[0]
			proof.Items = append(proof.Items, AscentItem{
				Kind:    AscentBranch,
				Bit:     b,
				Sibling: n.children[1-b].hash,
			})
			remaining = remaining[1:]
			cur = n.children[b]
		default:
			return nil, fmt.Errorf("trie: internal: invalid node kind %d", n.kind)
		}
	}
}

func reverseItems(items []AscentItem) {
	for i, j := 0, len(items)-1; i < j; i, j = i+1, j-1 {
		items[i], items[j] = items[j], items[i]
	}
}

// VerifyMembership checks that proof demonstrates key ↦ value under root.
func VerifyMembership(root cryptoutil.Hash, key [KeySize]byte, value cryptoutil.Hash, proof *Proof) error {
	if proof == nil || !proof.Membership || proof.terminal != terminalLeaf {
		return fmt.Errorf("%w: not a membership proof", ErrBadProof)
	}
	if value.IsZero() {
		return fmt.Errorf("%w: zero value", ErrBadProof)
	}
	keyPath := keyToPath(key)
	prefixLen := ascentBits(proof.Items)
	leafPath := unpackPath(proof.LeafPath, proof.LeafPathLen)
	if prefixLen+len(leafPath) != keyBits {
		return fmt.Errorf("%w: path length mismatch", ErrBadProof)
	}
	if !leafPath.equal(keyPath[prefixLen:]) {
		return fmt.Errorf("%w: leaf path does not match key", ErrBadProof)
	}
	h := leafHash(leafPath, value)
	got, err := climb(h, keyPath[:prefixLen], proof.Items)
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
	keyPath := keyToPath(key)
	prefixLen := ascentBits(proof.Items)

	switch proof.terminal {
	case terminalNone:
		if len(proof.Items) != 0 || !root.IsZero() {
			return fmt.Errorf("%w: empty-trie proof against non-empty root", ErrBadProof)
		}
		return nil
	case terminalLeaf:
		leafPath := unpackPath(proof.LeafPath, proof.LeafPathLen)
		if prefixLen+len(leafPath) != keyBits {
			return fmt.Errorf("%w: path length mismatch", ErrBadProof)
		}
		if leafPath.equal(keyPath[prefixLen:]) {
			return fmt.Errorf("%w: leaf path equals key; key may be present", ErrBadProof)
		}
		if proof.LeafValue.IsZero() {
			return fmt.Errorf("%w: diverging leaf missing value", ErrBadProof)
		}
		h := leafHash(leafPath, proof.LeafValue)
		got, err := climb(h, keyPath[:prefixLen], proof.Items)
		if err != nil {
			return err
		}
		if got != root {
			return fmt.Errorf("%w: root mismatch", ErrBadProof)
		}
		return nil
	case terminalExt:
		extPath := unpackPath(proof.ExtPath, proof.ExtPathLen)
		if prefixLen+len(extPath) > keyBits {
			return fmt.Errorf("%w: path overrun", ErrBadProof)
		}
		c := commonPrefixLen(extPath, keyPath[prefixLen:])
		if c == len(extPath) {
			return fmt.Errorf("%w: extension matches key; key may be present", ErrBadProof)
		}
		h := extHash(extPath, proof.ExtChild)
		got, err := climb(h, keyPath[:prefixLen], proof.Items)
		if err != nil {
			return err
		}
		if got != root {
			return fmt.Errorf("%w: root mismatch", ErrBadProof)
		}
		return nil
	default:
		return fmt.Errorf("%w: unknown terminal", ErrBadProof)
	}
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

// climb recomputes the root from a terminal hash h, walking the ascent
// items (deepest first) and checking every consumed bit against the key
// prefix (deepest bits last in keyPrefix).
func climb(h cryptoutil.Hash, keyPrefix path, items []AscentItem) (cryptoutil.Hash, error) {
	pos := len(keyPrefix)
	for _, it := range items {
		switch it.Kind {
		case AscentBranch:
			if pos < 1 {
				return cryptoutil.ZeroHash, fmt.Errorf("%w: ascent underflow", ErrBadProof)
			}
			pos--
			b := keyPrefix[pos]
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
			pos -= it.PathLen
			p := unpackPath(it.Path, it.PathLen)
			if !p.equal(keyPrefix[pos : pos+it.PathLen]) {
				return cryptoutil.ZeroHash, fmt.Errorf("%w: extension path mismatch", ErrBadProof)
			}
			h = extHash(p, h)
		default:
			return cryptoutil.ZeroHash, fmt.Errorf("%w: unknown ascent kind", ErrBadProof)
		}
	}
	if pos != 0 {
		return cryptoutil.ZeroHash, fmt.Errorf("%w: %d unconsumed key bits", ErrBadProof, pos)
	}
	return h, nil
}
