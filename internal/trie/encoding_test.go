package trie

import (
	"bytes"
	"math"
	"runtime/metrics"
	"testing"
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

func marshal(t testing.TB, p *Proof) []byte {
	t.Helper()
	b, err := p.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestProofDecodeRejectsMalformed: relayed proofs are untrusted bytes, and
// each of these used to decode — the first after allocating 4.7 MB for an
// item count the input cannot hold.
func TestProofDecodeRejectsMalformed(t *testing.T) {
	tr := goldenTrie(t)
	proof, err := tr.Prove(key("c"))
	if err != nil {
		t.Fatal(err)
	}
	good := marshal(t, proof)
	if last := proof.Items[len(proof.Items)-1]; !proof.Membership || last.Kind != AscentBranch {
		t.Fatal("want a membership proof whose last item is a branch")
	}
	var p Proof
	if n := allocatedPerCall(100, func() { err = p.UnmarshalBinary([]byte{1, 3, 0, 0, 0xff, 0xff}) }); n >= 1024 {
		t.Errorf("a 65 535-item count allocated %d bytes", n)
	}
	if err == nil {
		t.Error("a 65 535-item count in 6 bytes decoded")
	}
	for _, c := range []struct {
		name string
		data []byte
	}{
		{"three trailing bytes", append(append([]byte(nil), good...), 1, 2, 3)},
		{"cut 5 bytes into the last sibling", good[:len(good)-32+5]},
		{"membership without a leaf", []byte{1, 1, 0, 0}},
	} {
		if err := p.UnmarshalBinary(c.data); err == nil {
			t.Errorf("%s: decoded as %+v", c.name, p)
		}
	}
}

// FuzzProofDecode feeds arbitrary bytes to the proof decoder (what a
// relayer hands the guest contract and a counterparty's light client): it
// never panics, allocates within a fixed multiple of the input, and an
// accepted proof is canonical — it re-marshals to the same bytes.
func FuzzProofDecode(f *testing.F) {
	tr := goldenTrie(f)
	for _, k := range [][KeySize]byte{seqKey(7, 2), key("c"), key("absent-2"), seqKey(7, 1<<20)} {
		p, err := tr.Prove(k)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(marshal(f, p))
	}
	f.Add([]byte{1, 0, 0, 0})
	f.Add([]byte{1, 3, 0, 0, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		var p Proof
		var err error
		if n := allocatedPerCall(8, func() { err = p.UnmarshalBinary(data) }); n > 4*uint64(len(data))+16<<10 {
			t.Fatalf("%d input bytes allocated %d", len(data), n)
		}
		if err != nil {
			return
		}
		if again := marshal(t, &p); !bytes.Equal(again, data) {
			t.Fatalf("accepted %x, re-marshals to %x", data, again)
		}
	})
}
