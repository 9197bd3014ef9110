package ibc

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/trie"
)

func TestStoreSetGetDelete(t *testing.T) {
	s := NewStore()
	if err := s.Set("a/b", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get("a/b")
	if err != nil || string(got) != "v1" {
		t.Fatalf("Get = %q, %v", got, err)
	}
	// Overwrite changes the root and the value.
	r1 := s.Root()
	if err := s.Set("a/b", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if s.Root() == r1 {
		t.Fatal("root unchanged after overwrite")
	}
	got, _ = s.Get("a/b")
	if string(got) != "v2" {
		t.Fatalf("Get after overwrite = %q", got)
	}
	// Delete removes value and trie entry.
	if err := s.Delete("a/b"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get("a/b"); err == nil {
		t.Fatal("deleted path readable")
	}
	if has, _ := s.Has("a/b"); has {
		t.Fatal("deleted path present")
	}
	if !s.Root().IsZero() {
		t.Fatal("root not empty after delete")
	}
}

func TestStoreRejectsEmptyValue(t *testing.T) {
	s := NewStore()
	if err := s.Set("p", nil); err == nil {
		t.Fatal("empty value accepted")
	}
}

func TestStoreValueIsolation(t *testing.T) {
	s := NewStore()
	buf := []byte("mutable")
	if err := s.Set("iso", buf); err != nil {
		t.Fatal(err)
	}
	buf[0] = 'X' // caller mutates its slice
	got, err := s.Get("iso")
	if err != nil || string(got) != "mutable" {
		t.Fatalf("stored value aliased caller buffer: %q", got)
	}
}

func TestStoreSealSemantics(t *testing.T) {
	s := NewStore()
	if err := s.Set("seal/me", []byte("x")); err != nil {
		t.Fatal(err)
	}
	root := s.Root()
	if err := s.Seal("seal/me"); err != nil {
		t.Fatal(err)
	}
	if s.Root() != root {
		t.Fatal("seal changed root")
	}
	if !s.IsSealed("seal/me") {
		t.Fatal("IsSealed false")
	}
	if _, err := s.Get("seal/me"); err == nil {
		t.Fatal("sealed value readable")
	}
	if _, err := s.Has("seal/me"); !errors.Is(err, trie.ErrSealed) {
		t.Fatalf("Has sealed = %v, want ErrSealed", err)
	}
	if err := s.Set("seal/me", []byte("again")); !errors.Is(err, trie.ErrSealed) {
		t.Fatalf("Set sealed = %v, want ErrSealed", err)
	}
	// Proving a sealed path fails either way.
	if _, _, err := s.ProveMembership("seal/me"); err == nil {
		t.Fatal("membership proof for sealed path")
	}
	if _, err := s.ProveNonMembership("seal/me"); err == nil {
		t.Fatal("absence proof for sealed path")
	}
}

func TestStoreProofHelpers(t *testing.T) {
	s := NewStore()
	if err := s.Set("exists", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	root := s.Root()
	value, proof, err := s.ProveMembership("exists")
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyStoredMembership(root, "exists", value, proof); err != nil {
		t.Fatal(err)
	}
	// Wrong value fails.
	if err := VerifyStoredMembership(root, "exists", []byte("other"), proof); err == nil {
		t.Fatal("wrong value verified")
	}
	// Wrong path fails.
	if err := VerifyStoredMembership(root, "elsewhere", value, proof); err == nil {
		t.Fatal("wrong path verified")
	}
	// Non-membership.
	absent, err := s.ProveNonMembership("missing")
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyStoredNonMembership(root, "missing", absent); err != nil {
		t.Fatal(err)
	}
	if err := VerifyStoredNonMembership(root, "exists", absent); err == nil {
		t.Fatal("absence verified for a present path")
	}
	// Proving a present path absent fails at generation.
	if _, err := s.ProveNonMembership("exists"); err == nil {
		t.Fatal("generated absence proof for present path")
	}
	// Garbage proof bytes are rejected.
	if err := VerifyStoredMembership(root, "exists", value, []byte{0xde, 0xad}); !errors.Is(err, ErrProofVerification) {
		t.Fatalf("garbage proof = %v, want ErrProofVerification", err)
	}
}

func TestStoreSnapshotIndependence(t *testing.T) {
	s := NewStore()
	for i := 0; i < 20; i++ {
		if err := s.Set(fmt.Sprintf("k/%d", i), []byte{byte(i + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	ver := s.Commit()
	defer s.Release(ver)
	snap, err := s.At(ver)
	if err != nil {
		t.Fatal(err)
	}
	root := snap.Root()
	// Mutate the original: the snapshot must be unaffected.
	if err := s.Set("k/0", []byte("changed")); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete("k/1"); err != nil {
		t.Fatal(err)
	}
	if snap.Root() != root {
		t.Fatal("snapshot root moved with the original")
	}
	got, err := snap.Get("k/0")
	if err != nil || got[0] != 1 {
		t.Fatalf("snapshot value changed: %v %v", got, err)
	}
	if has, _ := snap.Has("k/1"); !has {
		t.Fatal("snapshot lost a deleted key")
	}
	// And proofs from the snapshot verify against its root.
	v, p, err := snap.ProveMembership("k/5")
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyStoredMembership(root, "k/5", v, p); err != nil {
		t.Fatal(err)
	}
}

func TestStoreCapacity(t *testing.T) {
	s := NewStore(trie.WithCapacity(4))
	_ = s.Set("one", []byte("1"))
	err := error(nil)
	for i := 0; i < 10 && err == nil; i++ {
		err = s.Set(fmt.Sprintf("fill/%d", i), []byte("x"))
	}
	if !errors.Is(err, trie.ErrFull) {
		t.Fatalf("err = %v, want ErrFull", err)
	}
}

// TestStoreProofAllocations pins what a proof costs on each side of the
// wire: the prover writes one buffer (and the trie.Proof that holds it),
// and the verifiers read the relayed bytes in place.
func TestStoreProofAllocations(t *testing.T) {
	scopeMemo.Store(nil) // room for this scope, whatever ran before
	s := NewStore()
	for seq := uint64(1); seq <= 64; seq++ {
		if err := s.Set(CommitmentPath("transfer", "channel-0", seq), []byte{byte(seq)}); err != nil {
			t.Fatal(err)
		}
	}
	present, absent := CommitmentPath("transfer", "channel-0", 7), CommitmentPath("transfer", "channel-0", 1000)
	value, proof, err := s.ProveMembership(present)
	if err != nil {
		t.Fatal(err)
	}
	absence, err := s.ProveNonMembership(absent)
	if err != nil {
		t.Fatal(err)
	}
	root := s.Root()
	for _, c := range []struct {
		name string
		max  float64
		f    func() error
	}{
		{"Store.ProveMembership", 2, func() error { _, _, err := s.ProveMembership(present); return err }},
		{"VerifyStoredMembership", 0, func() error { return VerifyStoredMembership(root, present, value, proof) }},
		{"VerifyStoredNonMembership", 0, func() error { return VerifyStoredNonMembership(root, absent, absence) }},
	} {
		var err error
		got := testing.AllocsPerRun(200, func() { err = c.f() })
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got > c.max {
			t.Errorf("%s: %v allocations, want <= %v", c.name, got, c.max)
		}
	}
}
