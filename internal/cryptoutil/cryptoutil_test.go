package cryptoutil

import (
	"testing"
	"testing/quick"
)

func TestHashHelpers(t *testing.T) {
	a := HashBytes([]byte("a"))
	b := HashBytes([]byte("b"))
	if a == b || a.IsZero() {
		t.Fatal("hashing broken")
	}
	if HashConcat([]byte("ab"), []byte("c")) != HashBytes([]byte("abc")) {
		t.Fatal("HashConcat inconsistent with HashBytes")
	}
	// Domain separation: tagged hashes differ from plain and per tag.
	if HashTagged('x', []byte("m")) == HashTagged('y', []byte("m")) {
		t.Fatal("tags not separating")
	}
	if HashUint64('u', 1) == HashUint64('u', 2) {
		t.Fatal("uint hashing collides")
	}
}

func TestHexRoundTrip(t *testing.T) {
	h := HashBytes([]byte("hex"))
	if h.Short() != h.Hex()[:8] {
		t.Fatal("Short mismatch")
	}
}

func TestKeysDeterministic(t *testing.T) {
	k1 := GenerateKey("same-label")
	k2 := GenerateKey("same-label")
	if k1.Public() != k2.Public() {
		t.Fatal("same label produced different keys")
	}
	k3 := GenerateKey("other-label")
	if k1.Public() == k3.Public() {
		t.Fatal("different labels collided")
	}
	if GenerateKeyIndexed("x", 1).Public() == GenerateKeyIndexed("x", 2).Public() {
		t.Fatal("indexed keys collided")
	}
}

func TestSignVerify(t *testing.T) {
	k := GenerateKey("signer")
	msg := []byte("the message")
	sig := k.Sign(msg)
	if !Verify(k.Public(), msg, sig) {
		t.Fatal("valid signature rejected")
	}
	if Verify(k.Public(), []byte("other"), sig) {
		t.Fatal("wrong message accepted")
	}
	other := GenerateKey("other-signer")
	if Verify(other.Public(), msg, sig) {
		t.Fatal("wrong key accepted")
	}
	h := HashBytes(msg)
	hs := k.SignHash(h)
	if !Verify(k.Public(), h[:], hs) {
		t.Fatal("hash signature rejected")
	}
}

func TestPubKeyOrdering(t *testing.T) {
	a := GenerateKey("a").Public()
	b := GenerateKey("b").Public()
	if a.Compare(b) == 0 || a.Compare(b) != -b.Compare(a) {
		t.Fatal("Compare not antisymmetric")
	}
	if a.Compare(a) != 0 {
		t.Fatal("Compare not reflexive")
	}
	var zero PubKey
	if !zero.IsZero() || a.IsZero() {
		t.Fatal("IsZero wrong")
	}
}

func TestQuickSignatureNonMalleable(t *testing.T) {
	k := GenerateKey("quick-signer")
	f := func(msg []byte, flip uint16) bool {
		sig := k.Sign(msg)
		if !Verify(k.Public(), msg, sig) {
			return false
		}
		// Flipping any bit of the signature must invalidate it.
		bad := sig
		bit := int(flip) % (len(bad) * 8)
		bad[bit/8] ^= 1 << (bit % 8)
		return !Verify(k.Public(), msg, bad)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
