package trie

import (
	"fmt"

	"repro/internal/cryptoutil"
	"repro/internal/wire"
)

// Per-node content-addressed encoding: the unit the NodeSource stores under
// the node's hash, and the only persisted form of the trie. The codec
// encodes exactly one node, with children represented by (state, hash)
// pairs, so a subtree shared between versions is stored once and found by
// hash. The encoding is canonical: a node has exactly one accepted byte
// form (FuzzNodeCodecDecode).
const (
	ncLeaf   byte = 0x01
	ncBranch byte = 0x02
	ncExt    byte = 0x03

	ncChildEmpty  byte = 0x00 // no subtree (never produced by live tries)
	ncChildHash   byte = 0x01 // live subtree, addressed by hash
	ncChildSealed byte = 0x02 // opaque sealed reference (hash only)
)

// encodeNode renders one cell into its content-addressed byte form, in a
// buffer of exactly its size.
func encodeNode(c *cell) []byte {
	var w *wire.Writer
	switch c.kind() {
	case kindLeaf:
		p := c.path()
		packed := p.packed()
		w = wire.NewWriterSize(4 + len(packed) + cryptoutil.HashSize)
		w.U8(ncLeaf)
		if c.sealed() {
			w.U8(1)
		} else {
			w.U8(0)
		}
		writePath(w, packed, p.len())
		w.Hash(c.valueHash())
	case kindBranch:
		w = wire.NewWriterSize(1 + childSize(c.kids[0]) + childSize(c.kids[1]))
		w.U8(ncBranch)
		writeChild(w, c.kids[0])
		writeChild(w, c.kids[1])
	case kindExt:
		p := c.path()
		packed := p.packed()
		w = wire.NewWriterSize(3 + len(packed) + childSize(c.kids[0]))
		w.U8(ncExt)
		writePath(w, packed, p.len())
		writeChild(w, c.kids[0])
	default:
		panic("trie: encode node: invalid node kind")
	}
	return w.Bytes()
}

// childSize is the encoded size of a child slot: its state byte, then its
// hash unless it is empty. A settled child's hash is current.
func childSize(s slot) int {
	if !s.sealed() && s.hash.IsZero() {
		return 1
	}
	return 1 + cryptoutil.HashSize
}

func writeChild(w *wire.Writer, s slot) {
	switch {
	case s.sealed():
		w.U8(ncChildSealed)
		w.Hash(s.hash)
	case s.hash.IsZero():
		w.U8(ncChildEmpty)
	default:
		w.U8(ncChildHash)
		w.Hash(s.hash)
	}
}

// readChild reads what writeChild wrote, as an empty, evicted or sealed
// slot. A live child with the empty hash is refused: it would re-encode as
// an empty child.
func readChild(r *wire.Reader) (slot, error) {
	switch state := r.U8(); state {
	case ncChildEmpty:
		return slot{}, nil
	case ncChildHash:
		h := r.Hash()
		if h.IsZero() && r.Err() == nil {
			return slot{}, fmt.Errorf("trie: decode node: live child with the empty hash")
		}
		return hashOnly(h, false), nil
	case ncChildSealed:
		return hashOnly(r.Hash(), true), nil
	default:
		return slot{}, fmt.Errorf("trie: decode node: unknown child state %#x", state)
	}
}

// readNodePath reads a node's path written by writePath, refusing any
// but its canonical encoding (pathOf).
func readNodePath(r *wire.Reader) (path, error) {
	bits := int(r.U16())
	packed := r.Raw((bits + 7) / 8)
	if err := r.Err(); err != nil {
		return path{}, fmt.Errorf("trie: decode node: %w", err)
	}
	p, ok := pathOf(packed, bits)
	if !ok {
		return p, fmt.Errorf("trie: decode node: non-canonical path of %d bits", bits)
	}
	return p, nil
}

// decodeInto parses a node encoded by encodeNode into c and verifies that
// its content re-hashes to h — the content-addressing check that makes a
// corrupted or substituted store entry detectable at the first read.
func decodeInto(c *cell, h cryptoutil.Hash, enc []byte) error {
	if err := parseInto(c, enc); err != nil {
		return err
	}
	if got := c.hash(); got != h {
		return fmt.Errorf("trie: decode node: content hash %x does not match address %x", got[:8], h[:8])
	}
	return nil
}

// parseInto parses one encoded node into c, rejecting every malformed or
// non-canonical form. Children come back as evicted slots (hash only), a
// leaf holds no value record, and the cell carries write generation 0, so
// the first write counts it as fresh. c's reference count is left as it
// is.
func parseInto(c *cell, enc []byte) error {
	r := wire.NewReader(enc)
	var kids [2]slot
	var p path
	var err error
	kind, sealed := nodeKind(0), false
	switch tag := r.U8(); tag {
	case ncLeaf:
		flags := r.U8()
		if flags > 1 {
			return fmt.Errorf("trie: decode node: invalid leaf flags %#x", flags)
		}
		kind, sealed = kindLeaf, flags == 1
		if p, err = readNodePath(r); err != nil {
			return err
		}
		kids[0].hash = r.Hash()
	case ncBranch:
		kind = kindBranch
		for i := range kids {
			if kids[i], err = readChild(r); err != nil {
				return err
			}
		}
	case ncExt:
		kind = kindExt
		if p, err = readNodePath(r); err != nil {
			return err
		}
		if kids[0], err = readChild(r); err != nil {
			return err
		}
	default:
		if r.Err() == nil {
			return fmt.Errorf("trie: decode node: unknown kind %#x", tag)
		}
	}
	if err := r.Done(); err != nil {
		return fmt.Errorf("trie: decode node: %w", err)
	}
	c.kids, c.head = kids, cellHead(kind, sealed)
	if kind != kindBranch {
		c.setPath(p)
	}
	return nil
}
