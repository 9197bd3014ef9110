package trie

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"hash"
	"testing"

	"repro/internal/cryptoutil"
)

// corpusKeys returns the corpus's present keys: two sequential spaces
// (long shared prefixes, extensions below the root) and scattered hashed
// keys, 2 000 in all.
func corpusKeys() [][KeySize]byte {
	var keys [][KeySize]byte
	for i := uint64(0); i < 800; i++ {
		keys = append(keys, seqKey(0, i))
	}
	for i := uint64(0); i < 600; i++ {
		keys = append(keys, seqKey(1, i))
	}
	for i := uint64(0); i < 600; i++ {
		keys = append(keys, [KeySize]byte(cryptoutil.HashUint64('g', i)))
	}
	return keys
}

// corpusAbsent returns keys the corpus never sets: the frontier past both
// sequential spaces, a third space, and more hashed keys.
func corpusAbsent() [][KeySize]byte {
	var keys [][KeySize]byte
	for i := uint64(0); i < 64; i++ {
		keys = append(keys, seqKey(0, 800+i), seqKey(1, 600+3*i), seqKey(2, i))
	}
	for i := uint64(0); i < 128; i++ {
		keys = append(keys, [KeySize]byte(cryptoutil.HashUint64('h', i)))
	}
	return keys
}

// writeProofs folds every key's proof into d, with a marker for a key
// the walk refuses (sealed data) so the refusals are pinned too.
func writeProofs(t *testing.T, d hash.Hash, prove func([KeySize]byte) (*Proof, error), keys [][KeySize]byte) {
	t.Helper()
	for _, k := range keys {
		p, err := prove(k)
		switch {
		case errors.Is(err, ErrSealed):
			d.Write([]byte{0xee})
			continue
		case err != nil:
			t.Fatalf("prove %x: %v", k[:4], err)
		}
		b := marshal(t, p)
		d.Write(binary.BigEndian.AppendUint32(nil, uint32(len(b))))
		d.Write(b)
	}
}

// TestTrieCorpusGolden pins one SHA-256 over a 2 000-key trie that
// crosses every node shape: the head root and counts, every present and
// absent key's proof (member, diverging leaf, diverging extension and
// sealed refusals), the same proofs against a snapshot taken before the
// deletes and the second round of seals, and every node's encodeNode in
// flush order. Seals saturate aligned blocks of the first sequential
// space, so collapsed opaque refs appear beside stubs. Any change to
// hashing, path handling, proof building or node encoding moves it.
func TestTrieCorpusGolden(t *testing.T) {
	tr := New()
	keys, absent := corpusKeys(), corpusAbsent()
	for i, k := range keys {
		must(t, tr.Set(k, cryptoutil.HashUint64('v', uint64(i))))
	}
	// Saturate the aligned block [0, 256) of space 0, and leave stubs
	// behind in space 1 and among the hashed keys.
	for i := 0; i < 256; i++ {
		must(t, tr.Seal(keys[i]))
	}
	for i := 800; i < 1400; i += 3 {
		must(t, tr.Seal(keys[i]))
	}
	snap := tr.Snapshot()
	for i := 1400; i < 2000; i += 7 {
		must(t, tr.Seal(keys[i]))
	}
	for i := 256; i < 512; i++ {
		must(t, tr.Seal(keys[i]))
	}
	for i := 1401; i < 2000; i += 5 {
		if err := tr.Delete(keys[i]); err != nil && !errors.Is(err, ErrSealed) {
			t.Fatal(err)
		}
	}
	for i := 1201; i < 1300; i += 3 {
		if err := tr.Delete(keys[i]); err != nil && !errors.Is(err, ErrSealed) {
			t.Fatal(err)
		}
	}

	d := sha256.New()
	root := tr.Root()
	d.Write(root[:])
	for _, c := range []int{tr.Len(), tr.NodeCount(), tr.SealedCount()} {
		d.Write(binary.BigEndian.AppendUint32(nil, uint32(c)))
	}
	writeProofs(t, d, tr.Prove, keys)
	writeProofs(t, d, tr.Prove, absent)

	view, err := tr.At(snap)
	if err != nil {
		t.Fatal(err)
	}
	snapRoot := view.Root()
	d.Write(snapRoot[:])
	writeProofs(t, d, view.Prove, keys)
	writeProofs(t, d, view.Prove, absent)

	src := newMapSource()
	if _, err := tr.FlushRoot(src); err != nil {
		t.Fatal(err)
	}
	for _, h := range src.puts {
		d.Write(h[:])
		d.Write(src.m[h])
	}

	const want = "badcaf5d0b6be0287db1705acdd5da7cc8ff006c31edce59ae3212a0770b0bac"
	if got := hex.EncodeToString(d.Sum(nil)); got != want {
		t.Fatalf("corpus digest = %s, want %s (%d nodes flushed)", got, want, len(src.puts))
	}
}
