// Package cryptoutil provides the hashing and signing primitives shared by
// every other module: a fixed-size Hash value, domain-separated SHA-256
// helpers, and thin Ed25519 wrappers with deterministic key generation for
// tests and simulations.
package cryptoutil

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
)

// HashSize is the size of a Hash in bytes.
const HashSize = 32

// Hash is a 32-byte SHA-256 digest. The zero value represents "no hash" and
// is used as the empty-trie root sentinel.
type Hash [HashSize]byte

// ZeroHash is the all-zero hash, used as a sentinel for "empty".
var ZeroHash Hash

// HashBytes returns the SHA-256 digest of data.
func HashBytes(data []byte) Hash {
	return Hash(sha256.Sum256(data))
}

// HashConcat returns the SHA-256 digest of the concatenation of the given
// byte slices without materialising the concatenation.
func HashConcat(parts ...[]byte) Hash {
	h := sha256.New()
	for _, p := range parts {
		h.Write(p)
	}
	var out Hash
	h.Sum(out[:0])
	return out
}

// HashTagged returns a domain-separated digest: SHA-256(tag || parts...).
// Using distinct single-byte tags for distinct node kinds prevents
// cross-kind preimage confusion in Merkle structures.
func HashTagged(tag byte, parts ...[]byte) Hash {
	h := sha256.New()
	h.Write([]byte{tag})
	for _, p := range parts {
		h.Write(p)
	}
	var out Hash
	h.Sum(out[:0])
	return out
}

// HashUint64 hashes a uint64 in big-endian order together with a tag.
func HashUint64(tag byte, v uint64) Hash {
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], v)
	return HashTagged(tag, buf[:])
}

// IsZero reports whether h is the all-zero sentinel.
func (h Hash) IsZero() bool { return h == ZeroHash }

// Bytes returns the hash as a byte slice. The returned slice is a copy.
func (h Hash) Bytes() []byte {
	out := make([]byte, HashSize)
	copy(out, h[:])
	return out
}

// Hex returns the lowercase hexadecimal encoding of the hash.
func (h Hash) Hex() string { return hex.EncodeToString(h[:]) }

// Short returns the first 8 hex characters, handy for logs.
func (h Hash) Short() string { return h.Hex()[:8] }

// String implements fmt.Stringer.
func (h Hash) String() string { return h.Hex() }
