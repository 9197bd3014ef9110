// Package trie implements the sealable Merkle-Patricia binary trie from
// §III-A of the paper. It is the guest blockchain's provable storage: a
// key-value store whose root hash commits to membership and non-membership
// of every key, and whose nodes can be "sealed" — removed from the
// underlying storage without changing the root commitment — so that the
// state size depends only on live data, not on history.
package trie

import (
	"errors"
	"fmt"

	"repro/internal/cryptoutil"
	"repro/internal/wire"
)

// KeySize is the fixed key length in bytes. All keys are 32-byte hashes of
// IBC commitment paths, which keeps every leaf at a unique position and
// makes all remaining-path lengths at a given depth equal.
const KeySize = cryptoutil.HashSize

// keyBits is the number of bits in a key.
const keyBits = KeySize * 8

// path is an immutable sequence of bits. Bits are stored unpacked (one byte
// per bit, values 0 or 1) for easy slicing and comparison; pack() produces
// the canonical packed form used when hashing.
type path []byte

// keyToPath unpacks a 32-byte key into its 256-bit path.
func keyToPath(key [KeySize]byte) path {
	p := make(path, keyBits)
	for i := 0; i < keyBits; i++ {
		p[i] = (key[i/8] >> (7 - uint(i%8))) & 1
	}
	return p
}

// pathToKey packs a full-length path back into a key. The path must be
// exactly keyBits long.
func pathToKey(p path) [KeySize]byte {
	var key [KeySize]byte
	for i, b := range p {
		if b != 0 {
			key[i/8] |= 1 << (7 - uint(i%8))
		}
	}
	return key
}

// pack returns the canonical packed encoding of the path: a length prefix is
// NOT included; callers hash the length separately. Trailing bits of the
// final byte are zero.
func (p path) pack() []byte {
	buf := make([]byte, (len(p)+7)/8)
	for i, b := range p {
		if b != 0 {
			buf[i/8] |= 1 << (7 - uint(i%8))
		}
	}
	return buf
}

// writePath writes a packed path as its u16 bit length and its packed
// bytes: the one path form proofs and stored nodes share.
func writePath(w *wire.Writer, packed []byte, bits int) {
	w.U16(uint16(bits))
	w.Raw(packed)
}

// readPath reads a path written by writePath; the packed bytes alias the
// reader's input. A path longer than a key or with a padding bit set is an
// error, so that proofs and stored nodes are non-malleable: no two byte
// strings decode to the same structure.
func readPath(r *wire.Reader) ([]byte, int, error) {
	bits := int(r.U16())
	packed := r.Raw((bits + 7) / 8)
	switch {
	case r.Err() != nil:
		return nil, 0, r.Err()
	case bits > keyBits:
		return nil, 0, fmt.Errorf("path length %d exceeds key bits", bits)
	case bits%8 != 0 && packed[len(packed)-1]&(0xff>>(bits%8)) != 0:
		return nil, 0, errors.New("non-canonical path padding")
	}
	return packed, bits, nil
}

// unpackPath reverses pack for a path of the given bit length.
func unpackPath(packed []byte, bits int) path {
	p := make(path, bits)
	for i := 0; i < bits; i++ {
		p[i] = (packed[i/8] >> (7 - uint(i%8))) & 1
	}
	return p
}

// commonPrefixLen returns the length of the longest common prefix of a and b.
func commonPrefixLen(a, b path) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// equal reports whether two paths hold the same bits.
func (p path) equal(q path) bool {
	if len(p) != len(q) {
		return false
	}
	for i := range p {
		if p[i] != q[i] {
			return false
		}
	}
	return true
}

// clone returns a copy of the path.
func (p path) clone() path {
	out := make(path, len(p))
	copy(out, p)
	return out
}
