package trie

import (
	"math/rand"
	"testing"

	"repro/internal/cryptoutil"
)

// TestLenMatchesKeysUnderChurn drives the trie through interleaved inserts,
// overwrites, seals, and deletes, asserting after every mutation that the
// O(1) leaf counter agrees with a full walk (len(Keys())).
func TestLenMatchesKeysUnderChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	tr := New()
	value := cryptoutil.HashBytes([]byte("v"))

	check := func(op string, i int) {
		t.Helper()
		if got, want := tr.Len(), len(trieKeys(tr)); got != want {
			t.Fatalf("step %d (%s): Len() = %d, Keys() walk = %d", i, op, got, want)
		}
	}

	var live, sealed [][KeySize]byte
	for i := 0; i < 4000; i++ {
		switch r := rng.Float64(); {
		case r < 0.5: // insert a fresh key
			k := [KeySize]byte(cryptoutil.HashUint64('c', uint64(i)))
			if err := tr.Set(k, value); err != nil {
				t.Fatalf("step %d set: %v", i, err)
			}
			live = append(live, k)
			check("set", i)
		case r < 0.6 && len(live) > 0: // overwrite an existing key
			k := live[rng.Intn(len(live))]
			if err := tr.Set(k, cryptoutil.HashUint64('w', uint64(i))); err != nil {
				t.Fatalf("step %d overwrite: %v", i, err)
			}
			check("overwrite", i)
		case r < 0.8 && len(live) > 0: // seal a live key
			j := rng.Intn(len(live))
			k := live[j]
			if err := tr.Seal(k); err != nil {
				t.Fatalf("step %d seal: %v", i, err)
			}
			live = append(live[:j], live[j+1:]...)
			sealed = append(sealed, k)
			check("seal", i)
		case len(live) > 0: // delete a live key (sealed siblings may block)
			j := rng.Intn(len(live))
			k := live[j]
			err := tr.Delete(k)
			switch err {
			case nil:
				live = append(live[:j], live[j+1:]...)
			case ErrSealed:
				// legal: sibling subtree sealed, key stays live
			default:
				t.Fatalf("step %d delete: %v", i, err)
			}
			check("delete", i)
		}
	}
	if len(live) == 0 || len(sealed) == 0 {
		t.Fatalf("churn did not exercise all paths: live=%d sealed=%d", len(live), len(sealed))
	}

	// A versioned snapshot carries the counter (counted via its key
	// enumeration).
	v := tr.Snapshot()
	view, err := tr.At(v)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(viewKeys(view)); got != tr.Len() {
		t.Fatalf("snapshot key count = %d, want %d", got, tr.Len())
	}
	tr.Release(v)
}

// trieKeys returns the head's live keys in depth-first order: the full walk
// that Len's counter must agree with.
func trieKeys(t *Trie) [][KeySize]byte { return keysFrom(t.loader(), t.root) }

// viewKeys returns the live keys of a retained version (none once it is
// released).
func viewKeys(v *View) [][KeySize]byte {
	rs, root, err := v.open()
	if err != nil {
		return nil
	}
	defer v.close()
	return keysFrom(rs, root)
}

func keysFrom(rs resolver, root slot) [][KeySize]byte {
	var out [][KeySize]byte
	var walk func(s slot, prefix path)
	walk = func(s slot, prefix path) {
		if s.state() == slotSealed || s.state() == slotEmpty {
			return
		}
		c, err := rs.resolve(s)
		if err != nil {
			return
		}
		switch c.kind() {
		case kindLeaf:
			if c.sealed() {
				return
			}
			out = append(out, prefix.concat(c.path()).b)
		case kindExt:
			walk(c.kids[0], prefix.concat(c.path()))
		case kindBranch:
			walk(c.kids[0], prefix.concat(bitPath(0)))
			walk(c.kids[1], prefix.concat(bitPath(1)))
		}
	}
	walk(root, path{})
	return out
}
