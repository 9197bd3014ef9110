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

// encodeNode renders one node into its content-addressed byte form, in a
// buffer of exactly its size.
func encodeNode(n *node) []byte {
	packed := n.path.packed()
	var w *wire.Writer
	switch n.kind {
	case kindLeaf:
		w = wire.NewWriterSize(4 + len(packed) + cryptoutil.HashSize)
		w.U8(ncLeaf)
		if n.sealed {
			w.U8(1)
		} else {
			w.U8(0)
		}
		writePath(w, packed, n.path.len())
		w.Hash(n.valueHash())
	case kindBranch:
		w = wire.NewWriterSize(1 + childSize(n.children[0]) + childSize(n.children[1]))
		w.U8(ncBranch)
		writeChild(w, n.children[0])
		writeChild(w, n.children[1])
	case kindExt:
		w = wire.NewWriterSize(3 + len(packed) + childSize(n.children[0]))
		w.U8(ncExt)
		writePath(w, packed, n.path.len())
		writeChild(w, n.children[0])
	default:
		panic("trie: encode node: invalid node kind")
	}
	return w.Bytes()
}

// childSize is the encoded size of a child reference: its state byte, then
// its hash unless it is empty.
func childSize(r ref) int {
	if !r.sealed && r.hash.IsZero() {
		return 1
	}
	return 1 + cryptoutil.HashSize
}

func writeChild(w *wire.Writer, r ref) {
	switch {
	case r.sealed:
		w.U8(ncChildSealed)
		w.Hash(r.hash)
	case r.hash.IsZero():
		w.U8(ncChildEmpty)
	default:
		w.U8(ncChildHash)
		w.Hash(r.hash)
	}
}

// readChild reads what writeChild wrote. A live child with the empty hash
// is refused: it would re-encode as an empty child.
func readChild(r *wire.Reader) (ref, error) {
	switch state := r.U8(); state {
	case ncChildEmpty:
		return ref{}, nil
	case ncChildHash:
		h := r.Hash()
		if h.IsZero() && r.Err() == nil {
			return ref{}, fmt.Errorf("trie: decode node: live child with the empty hash")
		}
		return ref{hash: h}, nil
	case ncChildSealed:
		return ref{hash: r.Hash(), sealed: true}, nil
	default:
		return ref{}, fmt.Errorf("trie: decode node: unknown child state %#x", state)
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

// decodeNode parses a node encoded by encodeNode and verifies that its
// content re-hashes to h — the content-addressing check that makes a
// corrupted or substituted store entry detectable at the first read.
func decodeNode(h cryptoutil.Hash, enc []byte) (*node, error) {
	n, err := parseNode(enc)
	if err != nil {
		return nil, err
	}
	if got := n.hash(); got != h {
		return nil, fmt.Errorf("trie: decode node: content hash %x does not match address %x", got[:8], h[:8])
	}
	return n, nil
}

// parseNode parses one encoded node, rejecting every malformed or
// non-canonical form. Children come back as evicted refs (hash only); the
// node carries write generation 0 so the first mutation path-copies it.
func parseNode(enc []byte) (*node, error) {
	r := wire.NewReader(enc)
	n := &node{}
	var err error
	switch kind := r.U8(); kind {
	case ncLeaf:
		flags := r.U8()
		if flags > 1 {
			return nil, fmt.Errorf("trie: decode node: invalid leaf flags %#x", flags)
		}
		n.kind, n.sealed = kindLeaf, flags == 1
		if n.path, err = readNodePath(r); err != nil {
			return nil, err
		}
		n.children[0].hash = r.Hash()
	case ncBranch:
		n.kind = kindBranch
		for i := range n.children {
			if n.children[i], err = readChild(r); err != nil {
				return nil, err
			}
		}
	case ncExt:
		n.kind = kindExt
		if n.path, err = readNodePath(r); err != nil {
			return nil, err
		}
		if n.children[0], err = readChild(r); err != nil {
			return nil, err
		}
	default:
		if r.Err() == nil {
			return nil, fmt.Errorf("trie: decode node: unknown kind %#x", kind)
		}
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("trie: decode node: %w", err)
	}
	return n, nil
}
