package trie

import (
	"bytes"
	"errors"
	"math"
	"runtime/metrics"
	"testing"

	"repro/internal/cryptoutil"
)

// allocatedPerCall reports the heap bytes one call of f allocates: the
// least of three averages over runs calls each, since the runtime counts
// small allocations a span at a time and a fuzz worker allocates beside
// the call being measured.
func allocatedPerCall(runs int, f func()) uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	least := uint64(math.MaxUint64)
	for window := 0; window < 3; window++ {
		metrics.Read(s)
		before := s[0].Value.Uint64()
		for i := 0; i < runs; i++ {
			f()
		}
		metrics.Read(s)
		least = min(least, (s[0].Value.Uint64()-before)/uint64(runs))
	}
	return least
}

// marshal returns p's wire form: a Proof is its own encoding.
func marshal(_ testing.TB, p *Proof) []byte { return []byte(*p) }

// partsOf parses p and lists the kinds of its items, deepest first.
func partsOf(t testing.TB, p *Proof) (proofParts, []byte) {
	t.Helper()
	v, err := p.parse()
	if err != nil {
		t.Fatal(err)
	}
	var kinds []byte
	for items := v.items; len(items) > 0; {
		kinds = append(kinds, items[0])
		if items[0] == itemBranch {
			items = items[branchItemSize:]
		} else {
			_, items, _ = cutPath(items[1:])
		}
	}
	return v, kinds
}

// TestProofDecodeRejectsMalformed: relayed proofs are untrusted bytes, and
// each of these used to decode — the first after allocating 4.7 MB for an
// item count the input cannot hold. The verifiers read the bytes in place,
// so UnmarshalBinary and both verifiers refuse every one.
func TestProofDecodeRejectsMalformed(t *testing.T) {
	tr := goldenTrie(t)
	k, v, root := key("c"), val("C"), tr.Root()
	proof, err := tr.Prove(k)
	if err != nil {
		t.Fatal(err)
	}
	good := marshal(t, proof)
	if parts, kinds := partsOf(t, proof); !parts.member || kinds[len(kinds)-1] != itemBranch {
		t.Fatal("want a membership proof whose last item is a branch")
	}
	edited := func(at int, b byte) []byte {
		bad := append([]byte(nil), good...)
		bad[at] = b
		return bad
	}
	bomb := []byte{1, 3, 0, 0, 0xff, 0xff}
	var p Proof
	if n := allocatedPerCall(100, func() { err = p.UnmarshalBinary(bomb) }); n >= 1024 {
		t.Errorf("a 65 535-item count allocated %d bytes", n)
	}
	for _, c := range []struct {
		name string
		data []byte
	}{
		{"a 65 535-item count in 6 bytes", bomb},
		{"three trailing bytes", append(append([]byte(nil), good...), 1, 2, 3)},
		{"cut 5 bytes into the last sibling", good[:len(good)-32+5]},
		{"membership without a leaf", []byte{1, 1, 0, 0}},
		{"a stray high bit in the flags", edited(1, good[1]|0x80)},
		{"a branch bit of 2", edited(len(good)-branchItemSize+1, 2)},
	} {
		in := Proof(c.data)
		for _, check := range []struct {
			name string
			err  error
		}{
			{"UnmarshalBinary", p.UnmarshalBinary(c.data)},
			{"VerifyMembership", VerifyMembership(root, k, v, &in)},
			{"VerifyNonMembership", VerifyNonMembership(root, k, &in)},
		} {
			if !errors.Is(check.err, ErrBadProof) {
				t.Errorf("%s: %s = %v, want ErrBadProof", c.name, check.name, check.err)
			}
		}
	}
}

// FuzzProofDecode feeds arbitrary bytes to the proof decoder and to both
// verifiers, which read them in place (what a relayer hands the guest
// contract and a counterparty's light client). None panics; UnmarshalBinary
// allocates within a fixed multiple of the input and the verifiers nothing;
// an accepted proof is canonical — it re-marshals to the same bytes — and
// non-malleable: a verifier accepts for a key only that key's own proof.
func FuzzProofDecode(f *testing.F) {
	tr := goldenTrie(f)
	root := tr.Root()
	// Two present keys with their values and two absent ones, each paired
	// with the proof Prove writes for it.
	cases := [4]struct {
		k      [KeySize]byte
		v      cryptoutil.Hash
		honest []byte
	}{{k: seqKey(7, 2), v: val("seq")}, {k: key("c"), v: val("C")}, {k: key("absent-2"), v: val("B")}, {k: seqKey(7, 1<<20), v: val("seq")}}
	for i := range cases {
		p, err := tr.Prove(cases[i].k)
		if err != nil {
			f.Fatal(err)
		}
		cases[i].honest = marshal(f, p)
		f.Add(cases[i].honest)
	}
	// key("c")'s proof with its top branch's bit flipped, and with its
	// sibling's last byte flipped: they reach the climb and fail there.
	for _, at := range []int{len(cases[1].honest) - branchItemSize + 1, len(cases[1].honest) - 1} {
		bad := append([]byte(nil), cases[1].honest...)
		bad[at] ^= 1
		f.Add(bad)
	}
	f.Add([]byte{1, 0, 0, 0})
	f.Add([]byte{1, 3, 0, 0, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		var p Proof
		var err error
		if n := allocatedPerCall(8, func() { err = p.UnmarshalBinary(data) }); n > 4*uint64(len(data))+16<<10 {
			t.Fatalf("%d input bytes allocated %d", len(data), n)
		}
		if err == nil {
			if again := marshal(t, &p); !bytes.Equal(again, data) {
				t.Fatalf("accepted %x, re-marshals to %x", data, again)
			}
		}

		in := Proof(data)
		var errs [2 * len(cases)]error
		// AllocsPerRun counts every allocation, where allocatedPerCall's
		// byte counter can miss a few small ones.
		if n := testing.AllocsPerRun(10, func() {
			for i, c := range cases {
				errs[2*i] = VerifyMembership(root, c.k, c.v, &in)
				errs[2*i+1] = VerifyNonMembership(root, c.k, &in)
			}
		}); n != 0 {
			t.Fatalf("verifying %d input bytes made %v allocations", len(data), n)
		}
		for i, err := range errs {
			c := cases[i/2]
			switch {
			case err != nil && !errors.Is(err, ErrBadProof):
				t.Fatalf("key %d: %v, want ErrBadProof", i/2, err)
			case err == nil && !bytes.Equal(data, c.honest):
				t.Fatalf("key %d: accepted %x, whose own proof is %x", i/2, data, c.honest)
			}
		}
	})
}
