package trie

import (
	"fmt"

	"repro/internal/cryptoutil"
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

// encodedNodeMax bounds a node encoding: tag + flags + 2-byte bit length +
// 2-byte packed-length prefix + 32-byte packed path + (state+hash)*2.
const encodedNodeMax = 1 + 1 + 2 + 2 + KeySize + 2*(1+cryptoutil.HashSize)

// encodeNode renders one node into its content-addressed byte form.
func encodeNode(n *node) []byte {
	b := make([]byte, 0, encodedNodeMax)
	switch n.kind {
	case kindLeaf:
		flags := byte(0)
		if n.sealed {
			flags = 1
		}
		b = append(b, ncLeaf, flags, byte(len(n.path)>>8), byte(len(n.path)))
		b = appendPacked(b, n.path)
		b = append(b, n.value[:]...)
	case kindBranch:
		b = append(b, ncBranch)
		b = appendChildRef(b, n.children[0])
		b = appendChildRef(b, n.children[1])
	case kindExt:
		b = append(b, ncExt, byte(len(n.path)>>8), byte(len(n.path)))
		b = appendPacked(b, n.path)
		b = appendChildRef(b, n.child)
	default:
		panic("trie: encode node: invalid node kind")
	}
	return b
}

func appendChildRef(b []byte, r ref) []byte {
	switch {
	case r.sealed:
		b = append(b, ncChildSealed)
		return append(b, r.hash[:]...)
	case r.hash.IsZero():
		return append(b, ncChildEmpty)
	default:
		b = append(b, ncChildHash)
		return append(b, r.hash[:]...)
	}
}

// nodeDecoder is a minimal cursor over an encoded node.
type nodeDecoder struct {
	b []byte
}

func (d *nodeDecoder) u8() (byte, error) {
	if len(d.b) < 1 {
		return 0, fmt.Errorf("trie: decode node: short buffer")
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v, nil
}

func (d *nodeDecoder) take(n int) ([]byte, error) {
	if len(d.b) < n {
		return nil, fmt.Errorf("trie: decode node: short buffer")
	}
	v := d.b[:n]
	d.b = d.b[n:]
	return v, nil
}

func (d *nodeDecoder) path() (path, error) {
	lb, err := d.take(2)
	if err != nil {
		return nil, err
	}
	bits := int(lb[0])<<8 | int(lb[1])
	if bits > keyBits {
		return nil, fmt.Errorf("trie: decode node: path length %d exceeds key bits", bits)
	}
	packed, err := d.take((bits + 7) / 8)
	if err != nil {
		return nil, err
	}
	if !canonicalPacked(packed, bits) {
		return nil, fmt.Errorf("trie: decode node: non-canonical path")
	}
	return unpackPath(packed, bits), nil
}

func (d *nodeDecoder) hash() (cryptoutil.Hash, error) {
	b, err := d.take(cryptoutil.HashSize)
	if err != nil {
		return cryptoutil.ZeroHash, err
	}
	var h cryptoutil.Hash
	copy(h[:], b)
	return h, nil
}

func (d *nodeDecoder) childRef() (ref, error) {
	state, err := d.u8()
	if err != nil {
		return ref{}, err
	}
	switch state {
	case ncChildEmpty:
		return ref{}, nil
	case ncChildHash:
		h, err := d.hash()
		if err != nil {
			return ref{}, err
		}
		if h.IsZero() {
			return ref{}, fmt.Errorf("trie: decode node: live child with the empty hash")
		}
		return ref{hash: h}, nil
	case ncChildSealed:
		h, err := d.hash()
		if err != nil {
			return ref{}, err
		}
		return ref{hash: h, sealed: true}, nil
	default:
		return ref{}, fmt.Errorf("trie: decode node: unknown child state %#x", state)
	}
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
	d := nodeDecoder{b: enc}
	kind, err := d.u8()
	if err != nil {
		return nil, err
	}
	n := &node{}
	switch kind {
	case ncLeaf:
		flags, err := d.u8()
		if err != nil {
			return nil, err
		}
		if flags > 1 {
			return nil, fmt.Errorf("trie: decode node: invalid leaf flags %#x", flags)
		}
		p, err := d.path()
		if err != nil {
			return nil, err
		}
		v, err := d.hash()
		if err != nil {
			return nil, err
		}
		n.kind, n.path, n.value, n.sealed = kindLeaf, p, v, flags&1 != 0
	case ncBranch:
		left, err := d.childRef()
		if err != nil {
			return nil, err
		}
		right, err := d.childRef()
		if err != nil {
			return nil, err
		}
		n.kind = kindBranch
		n.children[0], n.children[1] = left, right
	case ncExt:
		p, err := d.path()
		if err != nil {
			return nil, err
		}
		child, err := d.childRef()
		if err != nil {
			return nil, err
		}
		n.kind, n.path, n.child = kindExt, p, child
	default:
		return nil, fmt.Errorf("trie: decode node: unknown kind %#x", kind)
	}
	if len(d.b) != 0 {
		return nil, fmt.Errorf("trie: decode node: %d trailing bytes", len(d.b))
	}
	return n, nil
}
