package trie

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// goldenTrie mixes hashed keys with one run of sequential keys, so its
// proofs cross branches and extensions and end at every terminal shape.
func goldenTrie(t testing.TB) *Trie {
	t.Helper()
	tr := New()
	for i := 0; i < 12; i++ {
		if err := tr.Set(key(string(rune('a'+i))), val(string(rune('A'+i)))); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint64(0); i < 6; i++ {
		if err := tr.Set(seqKey(7, i), val("seq")); err != nil {
			t.Fatal(err)
		}
	}
	return tr
}

// TestEncodingGolden pins the digest and length of every proof shape and
// every node shape: proofs ride in recv payloads whose size sets host
// transaction counts, and node encodings are what the WAL stores.
func TestEncodingGolden(t *testing.T) {
	tr := goldenTrie(t)
	prove := func(tr *Trie, k [KeySize]byte) *Proof {
		p, err := tr.Prove(k)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	member := prove(tr, seqKey(7, 2))
	divLeaf := prove(tr, key("absent-2"))
	divExt := prove(tr, seqKey(7, 1<<20))
	empty := prove(New(), key("a"))
	m, kinds := partsOf(t, member)
	leaf, _ := partsOf(t, divLeaf)
	ext, _ := partsOf(t, divExt)
	none, _ := partsOf(t, empty)
	switch {
	case !m.member || !bytes.Contains(kinds, []byte{itemBranch}) || !bytes.Contains(kinds, []byte{itemExt}):
		t.Fatal("membership case is not a membership proof through branches and extensions")
	case leaf.member || leaf.terminal != terminalLeaf || leaf.path.len() == 0:
		t.Fatal("diverging-leaf case does not end at a leaf")
	case ext.member || ext.terminal != terminalExt || ext.path.len() == 0:
		t.Fatal("diverging-extension case does not end at an extension")
	case none.member || none.count != 0:
		t.Fatal("empty-trie case is not empty")
	}

	h := val("child")
	nodes := []struct {
		name string
		n    cell
	}{
		{"leaf", leafCell(bitsPath(1, 0, 1, 1, 0, 0, 1, 0, 1), val("leaf"), false)},
		{"leaf/sealed", leafCell(bitsPath(bitsOf(keyToPath(key("full")))[3:]...), val("stub"), true)},
		{"branch/hash+sealed", branchCell(hashOnly(h, false), hashOnly(val("opaque"), true))},
		{"branch/empty+hash", branchCell(slot{}, hashOnly(h, false))},
		{"ext", extCell(bitsPath(0, 1, 1), hashOnly(h, false))},
	}

	type pin struct {
		name   string
		digest string
		len    int
	}
	var got []pin
	for _, c := range []struct {
		name string
		p    *Proof
	}{{"proof/member", member}, {"proof/diverging-leaf", divLeaf}, {"proof/diverging-ext", divExt}, {"proof/empty", empty}} {
		b := []byte(*c.p)
		got = append(got, pin{c.name, digestHex(b), len(b)})
	}
	for _, c := range nodes {
		b := encodeNode(&c.n)
		got = append(got, pin{"node/" + c.name, digestHex(b), len(b)})
	}
	want := []pin{
		{"proof/member", "134eb21d4f2067c5be5c40047536283e7668655af282c71cc00370f3fa568241", 279},
		{"proof/diverging-leaf", "c8edcafa6e44849307c2d95c87a99e0029028655c99600c208436b2ca542e39e", 172},
		{"proof/diverging-ext", "758699f777636b301906e76224bb30d58040eee25b97521f12cece568bd50f82", 206},
		{"proof/empty", "67abdd721024f0ff4e0b3f4c2fc13bc5bad42d0b7851d456d88d203d15aaa450", 4},
		{"node/leaf", "60ffee349c5622549f383eddde6ad5817dc9a9d2c5709015917d10f33db44ae4", 38},
		{"node/leaf/sealed", "781802bd68ea658430b4393d8cd873635b0541378a3a81167554fb860f98cbdd", 68},
		{"node/branch/hash+sealed", "bd0616de64bb870fc839a16ab9786cc05c2d34247697cf9a3381fac0d59a32b0", 67},
		{"node/branch/empty+hash", "62560a7ffa1801c8b5642a93b25039f7bfa925fd0dfc760b9edfb2acccf4b54d", 35},
		{"node/ext", "a423b403a5c42ef7cce2b3cbfa9262ce7c86ecd2c6110125b1d3b15784fb1f3a", 37},
	}
	for i, w := range want {
		if got[i] != w {
			t.Errorf("%s = %s (%d bytes), want %s (%d bytes)", w.name, got[i].digest, got[i].len, w.digest, w.len)
		}
	}
}

func digestHex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
