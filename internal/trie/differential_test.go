package trie

import (
	"errors"
	"fmt"
	"maps"
	"testing"

	"repro/internal/cryptoutil"
)

// entry is the model's view of one key: its value, and whether it was
// sealed.
type entry struct {
	value  cryptoutil.Hash
	sealed bool
}

// diffKey maps a selector byte to a key: most select one of 224 dense
// sequence keys in two spaces, whose shared prefixes split leaves and
// extensions below the root and whose seals saturate aligned blocks; the
// rest select scattered hashed keys.
func diffKey(s byte) [KeySize]byte {
	if s < 0xe0 {
		return seqKey(s&1, uint64(s>>1))
	}
	return [KeySize]byte(cryptoutil.HashUint64('f', uint64(s)))
}

// FuzzTrieDifferential drives the sealable trie with an arbitrary sequence
// of Set, Delete, Seal and Get, two bytes per operation: the first picks
// the operation and an arena cap, the second the key. A map of entries is
// the model. Each operation may first run under a cap of the trie's node
// count plus 0, 1 or 2 nodes (TestErrFullLeavesTrieUntouched's ErrFull
// injector): a refused attempt must leave root, Len, node and sealed counts
// untouched, and the operation then runs uncapped. Every answer must be the model's — Get's value or
// ErrNotFound or ErrSealed, and the same for the mutations, except that a
// Delete may refuse a live key whose sibling subtree collapsed into a
// sealed reference, leaving the trie untouched. A Get's cap bits instead
// drive versions: 1 snapshots the trie (and copies the model), 2 releases
// the oldest retained version, 3 checks every retained version's reads
// against its copy. After every operation the reclamation oracle
// (checkArena) must hold: the cells in use are exactly those the head and
// the retained versions reach. At the end the root and the
// counts must equal those of a trie built from scratch out of the model,
// and every node the trie holds must encode and decode under its own hash
// (encodeNode, cell.hash, decodeNode): the trie builds no node of an
// unknown kind, and decodeNode refuses one, so the two invalid-kind panics
// are unreachable.
func FuzzTrieDifferential(f *testing.F) {
	f.Add([]byte{})
	// Set four neighbours, seal them all (a saturated block collapses),
	// then touch them again.
	f.Add([]byte{0, 0, 0, 2, 0, 4, 0, 6, 2, 0, 2, 2, 2, 4, 2, 6, 0, 0, 1, 2, 3, 4})
	// Deletes and re-inserts around a sealed neighbour, under tight caps.
	f.Add([]byte{0, 8, 0, 10, 0, 12, 2, 10, 5, 8, 9, 12, 13, 14, 4, 8, 1, 10, 3, 8})
	// Both spaces and scattered keys, every operation under a cap.
	f.Add([]byte{4, 1, 8, 3, 12, 0xe1, 4, 0xf0, 6, 1, 10, 0xe1, 5, 3, 9, 0xf0, 7, 1, 15, 0xe1})
	// Versions: snapshot, overwrite, snapshot, release the first, seal and
	// delete over the freed cells, check the one still retained.
	f.Add([]byte{0, 0, 0, 2, 0, 4, 7, 0, 0, 0, 0, 2, 7, 0, 11, 0, 2, 0, 2, 2, 15, 0, 11, 0, 1, 4, 15, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 512 {
			ops = ops[:512]
		}
		tr := New()
		model := map[[KeySize]byte]entry{}
		type version struct {
			v     Version
			model map[[KeySize]byte]entry
		}
		var kept []version
		checkVersions := func(when string) {
			for _, kv := range kept {
				view, err := tr.At(kv.v)
				if err != nil {
					t.Fatalf("%s: version %d: %v", when, kv.v, err)
				}
				for k, e := range kv.model {
					got, err := view.Get(k)
					if e.sealed && !errors.Is(err, ErrSealed) || !e.sealed && (err != nil || got != e.value) {
						t.Fatalf("%s: version %d reads %s, %v for a key the model has as %+v", when, kv.v, got.Short(), err, e)
					}
				}
			}
		}
		for i := 0; i+1 < len(ops); i += 2 {
			op, room, k := ops[i]&3, int(ops[i]>>2&3), diffKey(ops[i+1])
			v := cryptoutil.HashUint64('v', uint64(i))
			e, present := model[k]
			var do func() error
			switch op {
			case 0:
				do = func() error { return tr.Set(k, v) }
			case 1:
				do = func() error { return tr.Delete(k) }
			case 2:
				do = func() error { return tr.Seal(k) }
			default:
				got, err := tr.Get(k)
				switch {
				case !present:
					if !errors.Is(err, ErrNotFound) {
						t.Fatalf("op %d: Get of an absent key = %v, want ErrNotFound", i/2, err)
					}
				case e.sealed:
					if !errors.Is(err, ErrSealed) {
						t.Fatalf("op %d: Get of a sealed key = %v, want ErrSealed", i/2, err)
					}
				case err != nil || got != e.value:
					t.Fatalf("op %d: Get = %s, %v; want %s", i/2, got.Short(), err, e.value.Short())
				}
				switch room {
				case 1:
					kept = append(kept, version{tr.Snapshot(), maps.Clone(model)})
				case 2:
					if len(kept) > 0 {
						tr.Release(kept[0].v)
						kept = kept[1:]
					}
				case 3:
					checkVersions(fmt.Sprintf("op %d", i/2))
				}
				checkArena(t, tr)
				continue
			}

			root, n, nodes, sealed := tr.Root(), tr.Len(), tr.NodeCount(), tr.SealedCount()
			untouched := func(what string) {
				if tr.Root() != root || tr.Len() != n || tr.NodeCount() != nodes || tr.SealedCount() != sealed {
					t.Fatalf("op %d: %s moved the trie: root %s -> %s, len %d -> %d, nodes %d -> %d, sealed %d -> %d",
						i/2, what, root.Short(), tr.Root().Short(), n, tr.Len(), nodes, tr.NodeCount(), sealed, tr.SealedCount())
				}
			}
			if room > 0 && nodes+room-1 > 0 {
				tr.maxNodes = nodes + room - 1
				err := do()
				tr.maxNodes = 0
				if errors.Is(err, ErrFull) {
					untouched("ErrFull")
				} else {
					// It fit: check its answer below without running it again.
					do = func() error { return err }
				}
			}
			err := do()

			var want error
			switch {
			case e.sealed:
				want = ErrSealed
			case !present && op != 0:
				want = ErrNotFound
			}
			if op == 1 && present && !e.sealed && errors.Is(err, ErrSealed) {
				// The key's sibling subtree is a sealed reference: merging
				// would rebuild freed nodes.
				untouched("a refused Delete")
				checkArena(t, tr)
				continue
			}
			if !errors.Is(err, want) || (want == nil && err != nil) {
				t.Fatalf("op %d (%d on %x): err = %v, want %v", i/2, op, k[:2], err, want)
			}
			if err != nil {
				untouched("a refused operation")
				checkArena(t, tr)
				continue
			}
			switch op {
			case 0:
				model[k] = entry{value: v}
			case 1:
				delete(model, k)
			case 2:
				model[k] = entry{value: e.value, sealed: true}
			}
			checkArena(t, tr)
		}
		checkVersions("at the end")

		fresh, live := New(), 0
		for k, e := range model {
			if err := fresh.Set(k, e.value); err != nil {
				t.Fatal(err)
			}
		}
		for k, e := range model {
			if !e.sealed {
				live++
			} else if err := fresh.Seal(k); err != nil {
				t.Fatal(err)
			}
		}
		if tr.Root() != fresh.Root() || tr.Len() != live || tr.NodeCount() != fresh.NodeCount() || tr.SealedCount() != fresh.SealedCount() {
			t.Fatalf("trie has root %s, len %d, %d nodes, %d sealed refs; built from scratch %s, %d, %d, %d",
				tr.Root().Short(), tr.Len(), tr.NodeCount(), tr.SealedCount(),
				fresh.Root().Short(), live, fresh.NodeCount(), fresh.SealedCount())
		}
		walkNodes(t, tr, tr.root)
	})
}

// walkNodes checks that every cell under s encodes and decodes under its
// own hash, which its parent holds.
func walkNodes(t *testing.T, tr *Trie, s slot) {
	if !s.inArena() {
		return
	}
	c := tr.cell(&s)
	if k := c.kind(); k != kindLeaf && k != kindBranch && k != kindExt {
		t.Fatalf("the trie built a node of kind %d", k)
	}
	h := c.hash()
	if h != s.hash {
		t.Fatalf("node hashes to %s, its parent holds %s", h.Short(), s.hash.Short())
	}
	back, err := decodeNode(h, encodeNode(c))
	if err != nil || back.kind() != c.kind() {
		t.Fatalf("node of kind %d does not decode under its own hash: %v", c.kind(), err)
	}
	switch c.kind() {
	case kindBranch:
		walkNodes(t, tr, c.kids[0])
		walkNodes(t, tr, c.kids[1])
	case kindExt:
		walkNodes(t, tr, c.kids[0])
	}
}
