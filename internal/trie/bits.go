// Package trie implements the sealable Merkle-Patricia binary trie from
// §III-A of the paper. It is the guest blockchain's provable storage: a
// key-value store whose root hash commits to membership and non-membership
// of every key, and whose nodes can be "sealed" — removed from the
// underlying storage without changing the root commitment — so that the
// state size depends only on live data, not on history.
package trie

import (
	"math/bits"

	"repro/internal/cryptoutil"
	"repro/internal/wire"
)

// KeySize is the fixed key length in bytes. All keys are 32-byte hashes of
// IBC commitment paths, which keeps every leaf at a unique position and
// makes all remaining-path lengths at a given depth equal.
const KeySize = cryptoutil.HashSize

// keyBits is the number of bits in a key.
const keyBits = KeySize * 8

// path is a bit string of at most keyBits bits in its canonical packed
// form, the one form hashing, node encodings and proofs use: bit i is bit
// 7-i%8 of b[i/8] (MSB first), and every bit past n is zero. So a path is a
// plain value — two paths hold the same bits exactly when they are ==, and
// b[:(n+7)/8] is its encoding, with no conversion. A key is the full-length
// path over its own bytes (keyToPath), and descents read it by bit index.
type path struct {
	b [KeySize]byte
	n uint16
}

// keyToPath returns the full 256-bit path of a key.
func keyToPath(key [KeySize]byte) path {
	return path{b: key, n: keyBits}
}

// len returns the path length in bits.
func (p *path) len() int { return int(p.n) }

// size returns the length of the packed encoding in bytes.
func (p *path) size() int { return (int(p.n) + 7) / 8 }

// packed returns the canonical packed encoding, aliasing the path.
func (p *path) packed() []byte { return p.b[:p.size()] }

// bit returns bit i (0 or 1); i must be below the path length.
func (p *path) bit(i int) byte {
	return p.b[i>>3] >> (7 - uint(i&7)) & 1
}

// octet returns the eight bits of p starting at bit i; bits past the
// end of the buffer read as zero.
func (p *path) octet(i int) byte {
	j, s := i>>3, uint(i&7)
	v := p.b[j] << s
	if s != 0 && j+1 < KeySize {
		v |= p.b[j+1] >> (8 - s)
	}
	return v
}

// matchLen returns the length of the common prefix of p and q from bit pos
// on, at most the shorter of the two: one XOR and one leading-zero count
// per byte of p. pos must not exceed q's length.
func (p *path) matchLen(q *path, pos int) int {
	limit := min(p.len(), q.len()-pos)
	for j := 0; 8*j < limit; j++ {
		if x := p.b[j] ^ q.octet(pos+8*j); x != 0 {
			return min(8*j+bits.LeadingZeros8(x), limit)
		}
	}
	return limit
}

// slice returns bits [from, to) of p as a path of their own.
func (p *path) slice(from, to int) path {
	q := path{n: uint16(to - from)}
	for j := 0; j < q.size(); j++ {
		q.b[j] = p.octet(from + 8*j)
	}
	if r := q.n % 8; r != 0 {
		q.b[q.size()-1] &= 0xff << (8 - r)
	}
	return q
}

// concat returns p followed by q; the two together must fit a key.
func (p path) concat(q path) path {
	j0, s := int(p.n>>3), uint(p.n&7)
	for j, v := range q.packed() {
		p.b[j0+j] |= v >> s
		if s != 0 && j0+j+1 < KeySize {
			p.b[j0+j+1] = v << (8 - s)
		}
	}
	p.n += q.n
	return p
}

// bitPath returns the one-bit path holding b.
func bitPath(b byte) path {
	return path{b: [KeySize]byte{b << 7}, n: 1}
}

// writePath writes a packed path as its u16 bit length and its packed
// bytes: the one path form proofs and stored nodes share.
func writePath(w *wire.Writer, packed []byte, bits int) {
	w.U16(uint16(bits))
	w.Raw(packed)
}

// pathOf returns the path bits bits of packed encoding hold. ok is false
// unless packed is that path's canonical encoding — no longer than a key,
// exactly (bits+7)/8 bytes, every padding bit zero — so that proofs and
// stored nodes are non-malleable: no two byte strings decode to the same
// structure.
func pathOf(packed []byte, bits int) (p path, ok bool) {
	if bits < 0 || bits > keyBits || len(packed) != (bits+7)/8 {
		return p, false
	}
	if r := bits % 8; r != 0 && packed[len(packed)-1]&(0xff>>r) != 0 {
		return p, false
	}
	p.n = uint16(bits)
	copy(p.b[:], packed)
	return p, true
}
