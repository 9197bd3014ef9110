package trie

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/cryptoutil"
)

func key(s string) [KeySize]byte {
	return [KeySize]byte(cryptoutil.HashTagged('T', []byte(s)))
}

func val(s string) cryptoutil.Hash {
	return cryptoutil.HashTagged('V', []byte(s))
}

func TestEmptyTrie(t *testing.T) {
	tr := New()
	if got := tr.Root(); !got.IsZero() {
		t.Fatalf("empty root = %v, want zero", got)
	}
	if _, err := tr.Get(key("a")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get on empty = %v, want ErrNotFound", err)
	}
	if tr.Len() != 0 || tr.NodeCount() != 0 {
		t.Fatalf("empty trie has Len=%d NodeCount=%d", tr.Len(), tr.NodeCount())
	}
}

func TestSetGetSingle(t *testing.T) {
	tr := New()
	if err := tr.Set(key("a"), val("1")); err != nil {
		t.Fatal(err)
	}
	got, err := tr.Get(key("a"))
	if err != nil {
		t.Fatal(err)
	}
	if got != val("1") {
		t.Fatalf("Get = %v, want %v", got, val("1"))
	}
	if tr.Len() != 1 {
		t.Fatalf("Len = %d, want 1", tr.Len())
	}
	if tr.Root().IsZero() {
		t.Fatal("root still zero after insert")
	}
}

func TestSetOverwrite(t *testing.T) {
	tr := New()
	must(t, tr.Set(key("a"), val("1")))
	r1 := tr.Root()
	must(t, tr.Set(key("a"), val("2")))
	r2 := tr.Root()
	if r1 == r2 {
		t.Fatal("root unchanged after overwrite")
	}
	got, err := tr.Get(key("a"))
	if err != nil || got != val("2") {
		t.Fatalf("Get = %v, %v; want %v", got, err, val("2"))
	}
	if tr.Len() != 1 {
		t.Fatalf("Len = %d, want 1", tr.Len())
	}
}

func TestZeroValueRejected(t *testing.T) {
	tr := New()
	if err := tr.Set(key("a"), cryptoutil.ZeroHash); !errors.Is(err, ErrZeroValue) {
		t.Fatalf("Set zero value = %v, want ErrZeroValue", err)
	}
}

func TestManyKeysAgainstMap(t *testing.T) {
	tr := New()
	ref := map[[KeySize]byte]cryptoutil.Hash{}
	rng := rand.New(rand.NewSource(7))
	const n = 2000
	for i := 0; i < n; i++ {
		k := key(fmt.Sprintf("k%d", rng.Intn(700)))
		v := val(fmt.Sprintf("v%d", i))
		must(t, tr.Set(k, v))
		ref[k] = v
	}
	if tr.Len() != len(ref) {
		t.Fatalf("Len = %d, want %d", tr.Len(), len(ref))
	}
	for k, v := range ref {
		got, err := tr.Get(k)
		if err != nil || got != v {
			t.Fatalf("Get(%x) = %v, %v; want %v", k[:4], got, err, v)
		}
	}
	// Absent keys stay absent.
	for i := 0; i < 100; i++ {
		k := key(fmt.Sprintf("absent%d", i))
		if _, ok := ref[k]; ok {
			continue
		}
		if _, err := tr.Get(k); !errors.Is(err, ErrNotFound) {
			t.Fatalf("Get(absent) = %v, want ErrNotFound", err)
		}
	}
}

func TestRootDeterminism(t *testing.T) {
	// The root must be independent of insertion order.
	keys := make([][KeySize]byte, 50)
	for i := range keys {
		keys[i] = key(fmt.Sprintf("det%d", i))
	}
	build := func(order []int) cryptoutil.Hash {
		tr := New()
		for _, i := range order {
			must(t, tr.Set(keys[i], val(fmt.Sprintf("dv%d", i))))
		}
		return tr.Root()
	}
	fwd := make([]int, len(keys))
	rev := make([]int, len(keys))
	for i := range fwd {
		fwd[i] = i
		rev[i] = len(keys) - 1 - i
	}
	shuf := append([]int(nil), fwd...)
	rand.New(rand.NewSource(3)).Shuffle(len(shuf), func(i, j int) { shuf[i], shuf[j] = shuf[j], shuf[i] })
	r1, r2, r3 := build(fwd), build(rev), build(shuf)
	if r1 != r2 || r1 != r3 {
		t.Fatalf("roots differ by insertion order: %v %v %v", r1, r2, r3)
	}
}

func TestDelete(t *testing.T) {
	tr := New()
	must(t, tr.Set(key("a"), val("1")))
	rootA := tr.Root()
	must(t, tr.Set(key("b"), val("2")))
	must(t, tr.Set(key("c"), val("3")))

	if err := tr.Delete(key("b")); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Get(key("b")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get deleted = %v, want ErrNotFound", err)
	}
	if got, err := tr.Get(key("a")); err != nil || got != val("1") {
		t.Fatalf("Get(a) after delete = %v, %v", got, err)
	}
	if got, err := tr.Get(key("c")); err != nil || got != val("3") {
		t.Fatalf("Get(c) after delete = %v, %v", got, err)
	}
	must(t, tr.Delete(key("c")))
	if tr.Root() != rootA {
		t.Fatalf("root after deleting back to {a} = %v, want %v", tr.Root(), rootA)
	}
	must(t, tr.Delete(key("a")))
	if !tr.Root().IsZero() {
		t.Fatal("root not zero after deleting everything")
	}
	if tr.NodeCount() != 0 {
		t.Fatalf("NodeCount = %d after deleting everything", tr.NodeCount())
	}
}

func TestDeleteMissing(t *testing.T) {
	tr := New()
	must(t, tr.Set(key("a"), val("1")))
	if err := tr.Delete(key("zz")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Delete missing = %v, want ErrNotFound", err)
	}
}

func TestDeleteRandomisedAgainstMap(t *testing.T) {
	tr := New()
	ref := map[[KeySize]byte]cryptoutil.Hash{}
	rng := rand.New(rand.NewSource(11))
	keysInOrder := make([][KeySize]byte, 0, 400)
	for i := 0; i < 400; i++ {
		k := key(fmt.Sprintf("dr%d", i))
		v := val(fmt.Sprintf("dv%d", i))
		must(t, tr.Set(k, v))
		ref[k] = v
		keysInOrder = append(keysInOrder, k)
	}
	rng.Shuffle(len(keysInOrder), func(i, j int) {
		keysInOrder[i], keysInOrder[j] = keysInOrder[j], keysInOrder[i]
	})
	for i, k := range keysInOrder {
		must(t, tr.Delete(k))
		delete(ref, k)
		if tr.Len() != len(ref) {
			t.Fatalf("step %d: Len = %d, want %d", i, tr.Len(), len(ref))
		}
		// Spot check a few survivors.
		if i%37 == 0 {
			for kk, vv := range ref {
				got, err := tr.Get(kk)
				if err != nil || got != vv {
					t.Fatalf("step %d: Get(%x) = %v, %v; want %v", i, kk[:4], got, err, vv)
				}
				break
			}
		}
	}
	if !tr.Root().IsZero() || tr.NodeCount() != 0 {
		t.Fatalf("after all deletes: root=%v nodes=%d", tr.Root(), tr.NodeCount())
	}
}

func TestSealBasics(t *testing.T) {
	tr := New()
	must(t, tr.Set(key("a"), val("1")))
	must(t, tr.Set(key("b"), val("2")))
	root := tr.Root()

	if err := tr.Seal(key("a")); err != nil {
		t.Fatal(err)
	}
	if tr.Root() != root {
		t.Fatal("sealing changed the root commitment")
	}
	if _, err := tr.Get(key("a")); !errors.Is(err, ErrSealed) {
		t.Fatalf("Get sealed = %v, want ErrSealed", err)
	}
	// Re-inserting a sealed key must fail: this is the double-delivery guard.
	if err := tr.Set(key("a"), val("other")); !errors.Is(err, ErrSealed) {
		t.Fatalf("Set sealed = %v, want ErrSealed", err)
	}
	// Sealing again also fails.
	if err := tr.Seal(key("a")); !errors.Is(err, ErrSealed) {
		t.Fatalf("Seal sealed = %v, want ErrSealed", err)
	}
	// The sibling remains accessible.
	if got, err := tr.Get(key("b")); err != nil || got != val("2") {
		t.Fatalf("Get(b) = %v, %v", got, err)
	}
}

// seqKey builds a structured sequential key: a namespace byte followed by a
// big-endian counter in the low bytes — the shape the Guest Contract uses
// for packet receipts, which is what makes saturation collapse effective.
func seqKey(space byte, n uint64) [KeySize]byte {
	var k [KeySize]byte
	k[0] = space
	for i := 0; i < 8; i++ {
		k[KeySize-1-i] = byte(n >> (8 * i))
	}
	return k
}

func TestSealCollapseSequential(t *testing.T) {
	tr := New()
	const n = 64
	for i := uint64(0); i < n; i++ {
		must(t, tr.Set(seqKey(1, i), val(fmt.Sprintf("v%d", i))))
	}
	root := tr.Root()
	nodesBefore := tr.NodeCount()
	for i := uint64(0); i < n; i++ {
		must(t, tr.Seal(seqKey(1, i)))
	}
	if tr.Root() != root {
		t.Fatal("root changed by sealing")
	}
	// The fully-sealed aligned block collapses into one opaque ref hanging
	// off at most one extension node.
	if tr.NodeCount() > 2 {
		t.Fatalf("NodeCount = %d after sealing a dense block, want <= 2", tr.NodeCount())
	}
	if tr.SealedCount() != 1 {
		t.Fatalf("SealedCount = %d, want 1 (single collapsed region)", tr.SealedCount())
	}
	if nodesBefore < n {
		t.Fatalf("nodesBefore = %d, want >= %d", nodesBefore, n)
	}
	// Everything in the block is inaccessible.
	for i := uint64(0); i < n; i++ {
		if _, err := tr.Get(seqKey(1, i)); !errors.Is(err, ErrSealed) {
			t.Fatalf("Get(sealed %d) = %v, want ErrSealed", i, err)
		}
	}
	// The next sequence number is still insertable — liveness of the
	// delivery frontier.
	if err := tr.Set(seqKey(1, n), val("next")); err != nil {
		t.Fatalf("Set(next seq) = %v, want nil", err)
	}
}

func TestSealHashedKeysKeepStubs(t *testing.T) {
	// Hashed (uniform) keys do not saturate aligned blocks, so sealing
	// keeps stubs: no reclamation, but neighbours remain insertable.
	tr := New()
	const n = 32
	for i := 0; i < n; i++ {
		must(t, tr.Set(key(fmt.Sprintf("sh%d", i)), val("v")))
	}
	for i := 0; i < n; i++ {
		must(t, tr.Seal(key(fmt.Sprintf("sh%d", i))))
	}
	// New hashed keys must still be insertable.
	for i := 0; i < n; i++ {
		if err := tr.Set(key(fmt.Sprintf("fresh%d", i)), val("f")); err != nil {
			t.Fatalf("Set(fresh%d) = %v", i, err)
		}
	}
}

func TestSealMissing(t *testing.T) {
	tr := New()
	must(t, tr.Set(key("a"), val("1")))
	if err := tr.Seal(key("missing")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Seal missing = %v, want ErrNotFound", err)
	}
}

func TestDeleteWithSealedStubSibling(t *testing.T) {
	// A sealed *stub* sibling can be restructured around, so deleting its
	// live neighbour succeeds.
	tr := New()
	must(t, tr.Set(key("x1"), val("1")))
	must(t, tr.Set(key("x2"), val("2")))
	must(t, tr.Seal(key("x1")))
	if err := tr.Delete(key("x2")); err != nil {
		t.Fatalf("Delete with stub sibling = %v, want nil", err)
	}
	if _, err := tr.Get(key("x1")); !errors.Is(err, ErrSealed) {
		t.Fatalf("Get(x1) = %v, want ErrSealed after restructure", err)
	}
}

func TestDeleteWithOpaqueSealedSibling(t *testing.T) {
	// An opaque (collapsed) sibling cannot be restructured: Delete fails
	// with ErrSealed and the trie is unchanged.
	tr := New()
	must(t, tr.Set(seqKey(2, 0), val("0")))
	must(t, tr.Set(seqKey(2, 1), val("1")))
	must(t, tr.Set(seqKey(2, 2), val("2")))
	must(t, tr.Seal(seqKey(2, 0)))
	must(t, tr.Seal(seqKey(2, 1))) // {0,1} collapse into an opaque ref
	if tr.SealedCount() == 0 {
		t.Fatal("expected an opaque collapsed region")
	}
	if err := tr.Delete(seqKey(2, 2)); !errors.Is(err, ErrSealed) {
		t.Fatalf("Delete with opaque sibling = %v, want ErrSealed", err)
	}
	if got, err := tr.Get(seqKey(2, 2)); err != nil || got != val("2") {
		t.Fatalf("Get(seq 2) = %v, %v", got, err)
	}
}

func TestDeleteSealedKey(t *testing.T) {
	tr := New()
	must(t, tr.Set(key("ds"), val("1")))
	must(t, tr.Seal(key("ds")))
	if err := tr.Delete(key("ds")); !errors.Is(err, ErrSealed) {
		t.Fatalf("Delete sealed = %v, want ErrSealed", err)
	}
}

func TestCapacity(t *testing.T) {
	tr := New(WithCapacity(3))
	must(t, tr.Set(key("c1"), val("1"))) // 1 node
	// Second insert needs leaf+branch (+maybe ext): can exceed 3.
	err := tr.Set(key("c2"), val("2"))
	if err != nil && !errors.Is(err, ErrFull) {
		t.Fatalf("unexpected error: %v", err)
	}
	tr2 := New(WithCapacityBytes(10 * 1024 * 1024))
	if tr2.maxNodes <= 0 {
		t.Fatal("byte capacity not applied")
	}
	// The paper: 10 MiB stores >72k kv pairs; at 2 nodes/pair the arena
	// must admit >=145k nodes.
	if tr2.maxNodes < 145000 {
		t.Fatalf("10MiB arena = %d nodes, want >= 145000", tr2.maxNodes)
	}
}

func TestMembershipProof(t *testing.T) {
	tr := New()
	for i := 0; i < 100; i++ {
		must(t, tr.Set(key(fmt.Sprintf("p%d", i)), val(fmt.Sprintf("pv%d", i))))
	}
	root := tr.Root()
	for i := 0; i < 100; i++ {
		k := key(fmt.Sprintf("p%d", i))
		v := val(fmt.Sprintf("pv%d", i))
		proof, err := tr.Prove(k)
		if err != nil {
			t.Fatal(err)
		}
		if !proof.Membership() {
			t.Fatalf("Prove(%d) returned non-membership", i)
		}
		if err := VerifyMembership(root, k, v, proof); err != nil {
			t.Fatalf("VerifyMembership(%d): %v", i, err)
		}
		// Wrong value must fail.
		if err := VerifyMembership(root, k, val("wrong"), proof); err == nil {
			t.Fatal("membership proof verified against wrong value")
		}
		// Wrong root must fail.
		if err := VerifyMembership(val("badroot"), k, v, proof); err == nil {
			t.Fatal("membership proof verified against wrong root")
		}
		// Wrong key must fail.
		if err := VerifyMembership(root, key("different"), v, proof); err == nil {
			t.Fatal("membership proof verified against wrong key")
		}
	}
}

func TestNonMembershipProof(t *testing.T) {
	tr := New()
	for i := 0; i < 100; i++ {
		must(t, tr.Set(key(fmt.Sprintf("n%d", i)), val(fmt.Sprintf("nv%d", i))))
	}
	root := tr.Root()
	for i := 0; i < 100; i++ {
		k := key(fmt.Sprintf("absent%d", i))
		proof, err := tr.Prove(k)
		if err != nil {
			t.Fatal(err)
		}
		if proof.Membership() {
			t.Fatalf("Prove(absent%d) returned membership", i)
		}
		if err := VerifyNonMembership(root, k, proof); err != nil {
			t.Fatalf("VerifyNonMembership(%d): %v", i, err)
		}
		// A present key must NOT verify as absent with this proof.
		present := key(fmt.Sprintf("n%d", i))
		if err := VerifyNonMembership(root, present, proof); err == nil {
			t.Fatal("non-membership proof verified for a present key")
		}
	}
}

func TestNonMembershipEmptyTrie(t *testing.T) {
	tr := New()
	proof, err := tr.Prove(key("anything"))
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyNonMembership(tr.Root(), key("anything"), proof); err != nil {
		t.Fatal(err)
	}
	// The empty proof must not verify against a non-empty root.
	tr2 := New()
	must(t, tr2.Set(key("x"), val("y")))
	if err := VerifyNonMembership(tr2.Root(), key("anything"), proof); err == nil {
		t.Fatal("empty-trie proof verified against non-empty root")
	}
}

func TestProveSealed(t *testing.T) {
	tr := New()
	must(t, tr.Set(key("s1"), val("1")))
	must(t, tr.Seal(key("s1")))
	if _, err := tr.Prove(key("s1")); !errors.Is(err, ErrSealed) {
		t.Fatalf("Prove sealed = %v, want ErrSealed", err)
	}
}

func TestProofRoundTrip(t *testing.T) {
	tr := New()
	for i := 0; i < 50; i++ {
		must(t, tr.Set(key(fmt.Sprintf("rt%d", i)), val(fmt.Sprintf("rv%d", i))))
	}
	root := tr.Root()
	cases := [][KeySize]byte{key("rt7"), key("nope"), key("rt49")}
	for _, k := range cases {
		proof, err := tr.Prove(k)
		if err != nil {
			t.Fatal(err)
		}
		data := []byte(*proof)
		var back Proof
		if err := back.UnmarshalBinary(data); err != nil {
			t.Fatal(err)
		}
		if back.Membership() != proof.Membership() {
			t.Fatal("membership flag lost in round trip")
		}
		if proof.Membership() {
			v, err := tr.Get(k)
			if err != nil {
				t.Fatal(err)
			}
			if err := VerifyMembership(root, k, v, &back); err != nil {
				t.Fatalf("round-tripped membership proof: %v", err)
			}
		} else {
			if err := VerifyNonMembership(root, k, &back); err != nil {
				t.Fatalf("round-tripped non-membership proof: %v", err)
			}
		}
	}
}

func TestProofAfterSealStillVerifies(t *testing.T) {
	// A proof generated before sealing must keep verifying against the
	// unchanged root — this is what lets the counterparty verify old
	// packets while the guest reclaims storage.
	tr := New()
	must(t, tr.Set(key("keep"), val("k")))
	must(t, tr.Set(key("seal"), val("s")))
	root := tr.Root()
	proof, err := tr.Prove(key("seal"))
	if err != nil {
		t.Fatal(err)
	}
	must(t, tr.Seal(key("seal")))
	if tr.Root() != root {
		t.Fatal("root changed")
	}
	if err := VerifyMembership(root, key("seal"), val("s"), proof); err != nil {
		t.Fatalf("pre-seal proof no longer verifies: %v", err)
	}
}

// Property: for random batches of key-value pairs, every inserted pair is
// retrievable, every proof verifies, and roots are order-independent.
func TestQuickTrieMatchesMap(t *testing.T) {
	f := func(seed int64, opsRaw []uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := New()
		ref := map[[KeySize]byte]cryptoutil.Hash{}
		sealed := map[[KeySize]byte]bool{}
		universe := 40
		for _, op := range opsRaw {
			k := key(fmt.Sprintf("q%d", int(op)%universe))
			switch rng.Intn(4) {
			case 0, 1: // set
				v := val(fmt.Sprintf("qv%d", rng.Int63()))
				err := tr.Set(k, v)
				if sealed[k] {
					if !errors.Is(err, ErrSealed) {
						return false
					}
				} else if err != nil {
					return false
				} else {
					ref[k] = v
				}
			case 2: // delete
				err := tr.Delete(k)
				switch {
				case sealed[k]:
					if !errors.Is(err, ErrSealed) {
						return false
					}
				case errors.Is(err, ErrSealed):
					// Sibling sealed; entry stays.
				default:
					if _, ok := ref[k]; ok {
						if err != nil {
							return false
						}
						delete(ref, k)
					} else if !errors.Is(err, ErrNotFound) {
						return false
					}
				}
			case 3: // seal
				err := tr.Seal(k)
				switch {
				case sealed[k]:
					if !errors.Is(err, ErrSealed) {
						return false
					}
				default:
					if _, ok := ref[k]; ok {
						if err != nil {
							return false
						}
						sealed[k] = true
						delete(ref, k)
					} else if !errors.Is(err, ErrNotFound) && !errors.Is(err, ErrSealed) {
						return false
					}
				}
			}
		}
		// All reference entries readable and provable.
		root := tr.Root()
		for k, v := range ref {
			got, err := tr.Get(k)
			if err != nil || got != v {
				return false
			}
			proof, err := tr.Prove(k)
			if err != nil {
				return false
			}
			if VerifyMembership(root, k, v, proof) != nil {
				return false
			}
		}
		// All sealed entries inaccessible.
		for k := range sealed {
			if _, err := tr.Get(k); !errors.Is(err, ErrSealed) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: proofs cannot be replayed across roots.
func TestQuickProofNotTransferable(t *testing.T) {
	f := func(n uint8) bool {
		count := int(n)%50 + 2
		tr := New()
		for i := 0; i < count; i++ {
			if tr.Set(key(fmt.Sprintf("t%d", i)), val(fmt.Sprintf("tv%d", i))) != nil {
				return false
			}
		}
		k := key("t0")
		proof, err := tr.Prove(k)
		if err != nil {
			return false
		}
		oldRoot := tr.Root()
		if tr.Set(key("t0"), val("changed")) != nil {
			return false
		}
		newRoot := tr.Root()
		if oldRoot == newRoot {
			return false
		}
		// Old proof verifies old root, not new.
		if VerifyMembership(oldRoot, k, val("tv0"), proof) != nil {
			return false
		}
		return VerifyMembership(newRoot, k, val("tv0"), proof) != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestSealBoundsStorage(t *testing.T) {
	// The §III-A claim: with sealing, storage depends on in-flight data
	// only, not history. Simulate receive-then-seal churn over the
	// sequential receipt keys the Guest Contract uses, alongside a few
	// persistent (never sealed) entries.
	tr := New()
	for i := 0; i < 8; i++ {
		must(t, tr.Set(key(fmt.Sprintf("persistent%d", i)), val("p")))
	}
	base := tr.NodeCount()
	peak := 0
	for i := uint64(0); i < 5000; i++ {
		k := seqKey(3, i)
		must(t, tr.Set(k, val("r")))
		must(t, tr.Seal(k))
		if tr.NodeCount() > peak {
			peak = tr.NodeCount()
		}
	}
	if peak > base+80 {
		t.Fatalf("peak live nodes %d (base %d) under churn; sealing failed to bound storage", peak, base)
	}
	// Persistent entries unharmed.
	for i := 0; i < 8; i++ {
		if _, err := tr.Get(key(fmt.Sprintf("persistent%d", i))); err != nil {
			t.Fatalf("persistent entry lost: %v", err)
		}
	}
}

func TestKeysEnumeration(t *testing.T) {
	tr := New()
	want := map[[KeySize]byte]bool{}
	for i := 0; i < 20; i++ {
		k := key(fmt.Sprintf("e%d", i))
		must(t, tr.Set(k, val("x")))
		want[k] = true
	}
	got := trieKeys(tr)
	if len(got) != len(want) {
		t.Fatalf("Keys() returned %d keys, want %d", len(got), len(want))
	}
	for _, k := range got {
		if !want[k] {
			t.Fatalf("Keys() returned unexpected key %x", k[:4])
		}
	}
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// Property: corrupting any byte of an encoded membership proof makes it
// either fail to decode or fail to verify — proofs are non-malleable.
func TestQuickProofCorruptionNeverVerifies(t *testing.T) {
	tr := New()
	for i := 0; i < 40; i++ {
		must(t, tr.Set(key(fmt.Sprintf("pc%d", i)), val(fmt.Sprintf("pv%d", i))))
	}
	root := tr.Root()
	k := key("pc7")
	v := val("pv7")
	proof, err := tr.Prove(k)
	if err != nil {
		t.Fatal(err)
	}
	raw := []byte(*proof)

	f := func(pos uint16, delta uint8) bool {
		if delta == 0 {
			return true
		}
		mut := append([]byte(nil), raw...)
		mut[int(pos)%len(mut)] ^= delta
		var back Proof
		if err := back.UnmarshalBinary(mut); err != nil {
			return true // failed to decode: fine
		}
		// If it decodes, it must NOT verify the original statement unless
		// the mutation hit a byte that does not participate (there are
		// none in this encoding — every byte is hashed or structural).
		return VerifyMembership(root, k, v, &back) != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: a membership proof for one key never verifies for another.
func TestQuickProofKeyBinding(t *testing.T) {
	tr := New()
	const n = 30
	for i := 0; i < n; i++ {
		must(t, tr.Set(key(fmt.Sprintf("kb%d", i)), val(fmt.Sprintf("kv%d", i))))
	}
	root := tr.Root()
	f := func(a, b uint8) bool {
		i, j := int(a)%n, int(b)%n
		proof, err := tr.Prove(key(fmt.Sprintf("kb%d", i)))
		if err != nil || !proof.Membership() {
			return false
		}
		if i == j {
			return VerifyMembership(root, key(fmt.Sprintf("kb%d", i)), val(fmt.Sprintf("kv%d", i)), proof) == nil
		}
		// Wrong key and/or wrong value must fail.
		return VerifyMembership(root, key(fmt.Sprintf("kb%d", j)), val(fmt.Sprintf("kv%d", j)), proof) != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
