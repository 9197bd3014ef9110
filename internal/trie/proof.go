package trie

import (
	"errors"
	"fmt"

	"repro/internal/cryptoutil"
	"repro/internal/wire"
)

// ErrBadProof is returned when a proof fails decoding or verification.
var ErrBadProof = errors.New("trie: proof verification failed")

// Proof proves membership or non-membership of a key against a root
// commitment (§II "Provable storage"). For membership, the statement is
// "key maps to value". For non-membership, the proof exhibits the node at
// which the key's path diverges, demonstrating no leaf for the key can
// exist under the root.
//
// A proof is its wire encoding, the one form the prover writes, the
// relayer carries and the verifiers read in place. The encoding matters
// because relayed proofs must fit into 1232-byte host transactions (§IV);
// the relayer chunks larger payloads across transactions.
//
//	u8  version (1)
//	u8  flags: terminal<<1 | membership
//	    the terminal node:
//	      none (0)       empty trie; no items follow
//	      leaf (1)       path, then the value hash for non-membership
//	                     (membership: the verifier supplies the value)
//	      extension (2)  path, child hash (non-membership only)
//	u16 item count, at most one item per key bit
//	    the items, from the terminal up to the root (deepest first):
//	      branch (1)     u8 bit the key takes, sibling hash
//	      extension (2)  path
//
// A path is its u16 bit length and its packed bytes (writePath).
type Proof []byte

// Wire format version for proofs.
const proofWireVersion = 1

// Terminal shapes, as the flags byte holds them.
const (
	terminalNone = iota
	terminalLeaf
	terminalExt
)

// Ascent item kinds.
const (
	itemBranch = iota + 1
	itemExt
)

// Encoded sizes: the fewest bytes an item takes (a kind byte and an empty
// path's u16 bit length), and a branch item.
const (
	minItemSize    = 3
	branchItemSize = 2 + cryptoutil.HashSize
)

// The refusals, each wrapping ErrBadProof. None is built per call, so
// checking untrusted bytes allocates nothing, whether they verify or not.
var (
	errProofShort    = badProof("truncated")
	errProofVersion  = badProof("unsupported version")
	errProofTerminal = badProof("unknown terminal kind")
	errProofNoLeaf   = badProof("membership proof without a leaf")
	errProofPath     = badProof("non-canonical path")
	errProofCount    = badProof("more ascent items than key bits")
	errProofItem     = badProof("unknown ascent kind")
	errProofBit      = badProof("branch bit is neither 0 nor 1")
	errProofTrailing = badProof("trailing bytes")
	errNotMember     = badProof("not a membership proof")
	errNotAbsent     = badProof("not a non-membership proof")
	errZeroValue     = badProof("zero value")
	errPathLength    = badProof("path length mismatch")
	errLeafKey       = badProof("leaf path does not match key")
	errKeyPresent    = badProof("terminal path equals key; key may be present")
	errNotEmpty      = badProof("empty-trie proof against non-empty root")
	errBranchBit     = badProof("branch bit mismatch")
	errExtKey        = badProof("extension path mismatch")
	errUnconsumed    = badProof("unconsumed key bits")
	errRootMismatch  = badProof("root mismatch")
)

func badProof(why string) error { return fmt.Errorf("%w: %s", ErrBadProof, why) }

// Prove constructs a membership or non-membership proof for key, depending
// on the key's presence. It fails with ErrSealed if the descent crosses a
// sealed reference: sealed data can neither be proven present nor absent.
func (t *Trie) Prove(key [KeySize]byte) (*Proof, error) {
	t.settle(&t.root)
	return proveRef(t.loader(), t.root, key)
}

// proveRef builds the proof from an arbitrary root slot. It is the shared
// read-only walker behind Trie.Prove and View.Prove, so proofs for a
// retained version are byte-identical to the ones the head produced when
// that version was current — including after the version was evicted to a
// node backend, because the faulted nodes re-hash to the same commitments.
// Slots are walked by value; faulted nodes are never installed in the
// arena, keeping concurrent Views race-free. Every hash it reads is
// settled: a retained version's always is, and Trie.Prove settles the
// head first.
//
// The descent records the inner cells it crosses, then encodeProof writes
// the proof from them into one exact-size buffer.
func proveRef(rs resolver, root slot, key [KeySize]byte) (*Proof, error) {
	kp := keyToPath(key)
	var crossed [keyBits]*cell // every crossing consumes at least one key bit
	depth, pos := 0, 0
	cur := root
	for {
		switch cur.state() {
		case slotSealed:
			return nil, ErrSealed
		case slotEmpty:
			// Provably absent: empty trie or — impossible in a compressed
			// trie below the root — an empty slot.
			return encodeProof(&kp, crossed[:depth], nil, false), nil
		}
		c, err := rs.resolve(cur)
		if err != nil {
			return nil, err
		}
		switch c.kind() {
		case kindLeaf:
			member := c.holds(&kp, pos)
			if member && c.sealed() {
				// A sealed key can be proven neither present nor absent;
				// the data backing either statement is gone.
				return nil, ErrSealed
			}
			return encodeProof(&kp, crossed[:depth], c, member), nil
		case kindExt:
			p := c.path()
			if p.matchLen(&kp, pos) < p.len() {
				return encodeProof(&kp, crossed[:depth], c, false), nil
			}
			pos += p.len()
			cur = c.kids[0]
		case kindBranch:
			cur = c.kids[kp.bit(pos)]
			pos++
		default:
			return nil, fmt.Errorf("trie: internal: invalid node kind %d", c.kind())
		}
		crossed[depth] = c
		depth++
	}
}

// encodeProof writes the proof for key kp from the inner cells the descent
// crossed (root first) and the cell it stopped at: a leaf (the key's own
// when member), a diverging extension, or none for an empty slot.
func encodeProof(kp *path, crossed []*cell, term *cell, member bool) *Proof {
	size, flags := 4, byte(terminalNone) // version, flags, item count
	var tp path
	if term != nil {
		tp = term.path()
		size += 2 + tp.size()
		flags = terminalLeaf << 1
		if term.kind() == kindExt {
			flags = terminalExt << 1
		}
		if term.kind() == kindExt || !member {
			size += cryptoutil.HashSize
		}
	}
	if member {
		flags |= 1
	}
	pos := 0 // the key bits the items consume
	for _, c := range crossed {
		if c.kind() == kindExt {
			p := c.path()
			size += minItemSize + p.size()
			pos += p.len()
		} else {
			size += branchItemSize
			pos++
		}
	}

	w := wire.NewWriterSize(size)
	w.U8(proofWireVersion)
	w.U8(flags)
	if term != nil {
		writePath(w, tp.packed(), tp.len())
		if term.kind() == kindExt || !member {
			w.Hash(term.kids[0].hash) // the child's or the diverging leaf's value hash
		}
	}
	w.U16(uint16(len(crossed)))
	for i := len(crossed) - 1; i >= 0; i-- {
		c := crossed[i]
		if c.kind() == kindExt {
			p := c.path()
			pos -= p.len()
			w.U8(itemExt)
			writePath(w, p.packed(), p.len())
			continue
		}
		pos--
		b := kp.bit(pos)
		w.U8(itemBranch)
		w.U8(b)
		w.Hash(c.kids[1-b].hash)
	}
	p := Proof(w.Bytes())
	return &p
}

// Membership reports whether p is a proof of presence.
func (p Proof) Membership() bool { return len(p) > 1 && p[1]&1 != 0 }

// Items returns the number of ascent items p holds, read from its count;
// 0 when p is not a valid proof.
func (p Proof) Items() int {
	v, err := p.parse()
	if err != nil {
		return 0
	}
	return v.count
}

// UnmarshalBinary keeps a copy of data if it is a proof Prove could have
// written: the checks the verifiers make before they climb, so short or
// trailing input, a non-canonical path, an unknown kind and a membership
// proof without a leaf are errors (ErrBadProof).
func (p *Proof) UnmarshalBinary(data []byte) error {
	if _, err := Proof(data).parse(); err != nil {
		return err
	}
	*p = append(Proof(nil), data...)
	return nil
}

// proofParts is what parse reads off a valid proof: its statement, its
// terminal and the items above it, still in their encoding.
type proofParts struct {
	member   bool
	terminal byte
	path     path            // the terminal's
	hash     cryptoutil.Hash // a diverging leaf's value or an extension's child
	count    int             // items
	items    []byte          // the item bytes, deepest first
	bits     int             // the key bits the items consume
}

// parse checks in one pass that p is a proof Prove could have written —
// every path canonical, every kind known, no byte missing or left over —
// and returns its parts. It reads p in place and allocates nothing.
func (p Proof) parse() (proofParts, error) {
	var v proofParts
	if len(p) < 2 {
		return v, errProofShort
	}
	if p[0] != proofWireVersion {
		return v, errProofVersion
	}
	v.member, v.terminal = p[1]&1 != 0, p[1]>>1
	rest := []byte(p[2:])
	var err error
	switch {
	case v.terminal == terminalLeaf:
		if v.path, rest, err = cutPath(rest); err == nil && !v.member {
			v.hash, rest, err = cutHash(rest)
		}
	case v.member:
		return v, errProofNoLeaf
	case v.terminal == terminalExt:
		if v.path, rest, err = cutPath(rest); err == nil {
			v.hash, rest, err = cutHash(rest)
		}
	case v.terminal != terminalNone:
		return v, errProofTerminal
	}
	if err != nil {
		return v, err
	}
	if len(rest) < 2 {
		return v, errProofShort
	}
	// A verifiable proof consumes at least one key bit per item.
	v.count, rest = int(rest[0])<<8|int(rest[1]), rest[2:]
	switch {
	case v.count > keyBits:
		return v, errProofCount
	case v.count > len(rest)/minItemSize:
		return v, errProofShort
	}
	v.items = rest
	for i := 0; i < v.count; i++ {
		if len(rest) == 0 {
			return v, errProofShort
		}
		switch rest[0] {
		case itemBranch:
			if len(rest) < branchItemSize {
				return v, errProofShort
			}
			if rest[1] > 1 {
				return v, errProofBit
			}
			rest = rest[branchItemSize:]
			v.bits++
		case itemExt:
			var ext path
			if ext, rest, err = cutPath(rest[1:]); err != nil {
				return v, err
			}
			v.bits += ext.len()
		default:
			return v, errProofItem
		}
	}
	if len(rest) != 0 {
		return v, errProofTrailing
	}
	return v, nil
}

// cutPath reads a path written by writePath off the front of b.
func cutPath(b []byte) (path, []byte, error) {
	if len(b) < 2 {
		return path{}, nil, errProofShort
	}
	bits := int(b[0])<<8 | int(b[1])
	end := 2 + (bits+7)/8
	if len(b) < end {
		return path{}, nil, errProofShort
	}
	p, ok := pathOf(b[2:end], bits)
	if !ok {
		return p, nil, errProofPath
	}
	return p, b[end:], nil
}

// cutHash reads a hash off the front of b.
func cutHash(b []byte) (cryptoutil.Hash, []byte, error) {
	if len(b) < cryptoutil.HashSize {
		return cryptoutil.ZeroHash, nil, errProofShort
	}
	return cryptoutil.Hash(b[:cryptoutil.HashSize]), b[cryptoutil.HashSize:], nil
}

// VerifyMembership checks that proof demonstrates key ↦ value under root.
// It reads the proof's bytes in place and allocates nothing.
func VerifyMembership(root cryptoutil.Hash, key [KeySize]byte, value cryptoutil.Hash, proof *Proof) error {
	if proof == nil {
		return errNotMember
	}
	v, err := proof.parse()
	switch {
	case err != nil:
		return err
	case !v.member: // parse has refused a membership proof without a leaf
		return errNotMember
	case value.IsZero():
		return errZeroValue
	}
	kp := keyToPath(key)
	if v.bits+v.path.len() != keyBits {
		return errPathLength
	}
	if v.path.matchLen(&kp, v.bits) != v.path.len() {
		return errLeafKey
	}
	return v.climb(leafHash(&v.path, value), &kp, root)
}

// VerifyNonMembership checks that proof demonstrates the absence of key
// under root. It reads the proof's bytes in place and allocates nothing.
func VerifyNonMembership(root cryptoutil.Hash, key [KeySize]byte, proof *Proof) error {
	if proof == nil {
		return errNotAbsent
	}
	v, err := proof.parse()
	if err != nil {
		return err
	}
	if v.member {
		return errNotAbsent
	}
	kp := keyToPath(key)
	var h cryptoutil.Hash
	switch v.terminal {
	case terminalNone:
		if v.count != 0 || !root.IsZero() {
			return errNotEmpty
		}
		return nil
	case terminalLeaf:
		if v.bits+v.path.len() != keyBits {
			return errPathLength
		}
		if v.path.matchLen(&kp, v.bits) == v.path.len() {
			return errKeyPresent
		}
		if v.hash.IsZero() {
			return errZeroValue
		}
		h = leafHash(&v.path, v.hash)
	default: // terminalExt: parse has refused every other terminal
		if v.bits+v.path.len() > keyBits {
			return errPathLength
		}
		if v.path.matchLen(&kp, v.bits) == v.path.len() {
			return errKeyPresent
		}
		h = extHash(&v.path, v.hash)
	}
	return v.climb(h, &kp, root)
}

// climb recomputes the root from the terminal's hash h, walking the items
// parse has validated from the deepest up and checking every key bit they
// consume against kp: the deepest item takes the last of the first v.bits.
func (v *proofParts) climb(h cryptoutil.Hash, kp *path, root cryptoutil.Hash) error {
	pos, items := v.bits, v.items
	for len(items) > 0 {
		if items[0] == itemBranch {
			pos--
			b := kp.bit(pos)
			if b != items[1] {
				return errBranchBit
			}
			sibling := cryptoutil.Hash(items[2:branchItemSize])
			if b == 0 {
				h = branchHash(h, sibling)
			} else {
				h = branchHash(sibling, h)
			}
			items = items[branchItemSize:]
			continue
		}
		ext, rest, _ := cutPath(items[1:])
		pos -= ext.len()
		if ext.matchLen(kp, pos) != ext.len() {
			return errExtKey
		}
		h = extHash(&ext, h)
		items = rest
	}
	if pos != 0 {
		return errUnconsumed
	}
	if h != root {
		return errRootMismatch
	}
	return nil
}
