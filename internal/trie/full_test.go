package trie

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/cryptoutil"
)

// TestErrFullLeavesTrieUntouched drives a victim trie and an uncapped twin
// through the same seeded Set/Delete/Seal sequence. Before every operation
// the victim's arena is capped so that its first, second, then third
// allocation fails: each failed attempt must leave root, Len and node count
// where they were, and once the cap is lifted the operation — and every
// later one — must behave exactly as on the twin. A split that shortens
// the old node's path before its last allocation fails this on the next
// operation that walks the damaged node.
func TestErrFullLeavesTrieUntouched(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	victim, twin := New(), New()
	var live [][KeySize]byte

	for i := 0; i < 600; i++ {
		var op func(*Trie) error
		var name string
		switch r := rng.Float64(); {
		case r < 0.5 || len(live) == 0:
			// Sequential keys share long prefixes, so they split leaves and
			// extensions below the root (one-bit extension rests included).
			k := seqKey(byte(rng.Intn(2)), uint64(rng.Intn(96)))
			if r < 0.15 {
				k = [KeySize]byte(cryptoutil.HashUint64('f', uint64(i)))
			}
			v := cryptoutil.HashUint64('v', uint64(i))
			name, op = "set", func(tr *Trie) error { return tr.Set(k, v) }
			live = append(live, k)
		case r < 0.8:
			k := live[rng.Intn(len(live))]
			name, op = "delete", func(tr *Trie) error { return tr.Delete(k) }
		default:
			k := live[rng.Intn(len(live))]
			name, op = "seal", func(tr *Trie) error { return tr.Seal(k) }
		}

		var got error
		applied := false
		for room := 0; room < 3 && !applied; room++ {
			if victim.nodeCount+room == 0 {
				continue // a zero cap means unlimited
			}
			victim.maxNodes = victim.nodeCount + room
			root, n, nodes := victim.Root(), victim.Len(), victim.NodeCount()
			got = op(victim)
			if !errors.Is(got, ErrFull) {
				applied = true
				break
			}
			if victim.Root() != root || victim.Len() != n || victim.NodeCount() != nodes {
				t.Fatalf("step %d (%s), room %d: ErrFull moved the trie: root %s -> %s, len %d -> %d, nodes %d -> %d",
					i, name, room, root.Short(), victim.Root().Short(), n, victim.Len(), nodes, victim.NodeCount())
			}
		}
		victim.maxNodes = 0
		if !applied {
			got = op(victim)
		}
		want := op(twin)
		if !errors.Is(got, want) {
			t.Fatalf("step %d (%s): victim returned %v, twin %v", i, name, got, want)
		}
		if victim.Root() != twin.Root() || victim.Len() != twin.Len() || victim.NodeCount() != twin.NodeCount() {
			t.Fatalf("step %d (%s): victim diverged from twin: root %s vs %s, len %d vs %d, nodes %d vs %d",
				i, name, victim.Root().Short(), twin.Root().Short(),
				victim.Len(), twin.Len(), victim.NodeCount(), twin.NodeCount())
		}
	}
}
