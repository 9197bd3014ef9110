package cryptoutil

import (
	"bytes"
	"crypto/ed25519"
	"encoding/binary"
	"fmt"
)

// PubKey is an Ed25519 public key. It doubles as an account / validator
// identity throughout the repository.
type PubKey [ed25519.PublicKeySize]byte

// Signature is an Ed25519 signature.
type Signature [ed25519.SignatureSize]byte

// PrivKey wraps an Ed25519 private key together with its public half.
type PrivKey struct {
	key ed25519.PrivateKey
	pub PubKey
}

// GenerateKey derives a deterministic Ed25519 keypair from a 32-byte seed
// derived from the given label. Deterministic keys make simulations and
// tests reproducible; the scheme is NOT suitable for production key
// management, which is out of scope for this reproduction.
func GenerateKey(label string) *PrivKey {
	seed := HashTagged('K', []byte(label))
	key := ed25519.NewKeyFromSeed(seed[:])
	var pub PubKey
	copy(pub[:], key.Public().(ed25519.PublicKey))
	return &PrivKey{key: key, pub: pub}
}

// GenerateKeyIndexed derives a deterministic keypair from a label and index,
// convenient for creating validator fleets.
func GenerateKeyIndexed(label string, i int) *PrivKey {
	return GenerateKey(fmt.Sprintf("%s/%d", label, i))
}

// Public returns the public key.
func (k *PrivKey) Public() PubKey { return k.pub }

// Sign signs msg and returns the signature.
func (k *PrivKey) Sign(msg []byte) Signature {
	var sig Signature
	copy(sig[:], ed25519.Sign(k.key, msg))
	return sig
}

// SignHash signs the 32 bytes of h.
func (k *PrivKey) SignHash(h Hash) Signature { return k.Sign(h[:]) }

// Verify reports whether sig is a valid signature of msg under pub.
func Verify(pub PubKey, msg []byte, sig Signature) bool {
	return ed25519.Verify(pub[:], msg, sig[:])
}

// IsZero reports whether the public key is all zeroes.
func (p PubKey) IsZero() bool { return p == PubKey{} }

// Short returns a short printable prefix of the key for logs.
func (p PubKey) Short() string {
	return fmt.Sprintf("%x", p[:4])
}

// String implements fmt.Stringer.
func (p PubKey) String() string { return fmt.Sprintf("%x", p[:]) }

// Compare orders public keys lexicographically.
func (p PubKey) Compare(q PubKey) int { return bytes.Compare(p[:], q[:]) }

// Uint64 folds the first 8 bytes of the key into a uint64; used for cheap
// deterministic tie-breaking.
func (p PubKey) Uint64() uint64 { return binary.BigEndian.Uint64(p[:8]) }
