package trie

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/cryptoutil"
)

// inUse returns the number of entries handed out and not released.
func (p *pool[T]) inUse() int {
	n := 0
	if k := len(p.pages); k > 0 {
		n = p.fill
		for _, pg := range p.pages[:k-1] {
			n += len(pg)
		}
	}
	return n - len(p.free)
}

// checkArena is the reclamation oracle: the cells in use are exactly the
// cells reachable from the head and every retained version, each with as
// many references as slots and roots refer to it, no reachable cell is on
// the free list, and the value records in use are exactly the reachable
// leaves' records.
func checkArena(t testing.TB, tr *Trie) {
	t.Helper()
	refs := map[uint32]uint32{}
	records := 0
	var walk func(s slot)
	walk = func(s slot) {
		if !s.inArena() {
			return
		}
		i := s.index()
		if refs[i]++; refs[i] > 1 {
			return // shared: its children were counted from its first parent
		}
		c := tr.cells.at(i)
		switch c.kind() {
		case kindLeaf:
			if c.holdsValue() {
				records++
			}
		case kindBranch:
			walk(c.kids[0])
			walk(c.kids[1])
		case kindExt:
			walk(c.kids[0])
		}
	}
	walk(tr.root)
	for _, r := range tr.versions {
		walk(r)
	}
	if got := tr.cells.inUse(); got != len(refs) {
		t.Fatalf("%d cells in use, %d reachable from the head and %d retained versions", got, len(refs), len(tr.versions))
	}
	for i, n := range refs {
		if got := tr.cells.at(i).refs; got != n {
			t.Fatalf("cell %d counts %d references, %d slots and roots refer to it", i, got, n)
		}
	}
	for _, i := range tr.cells.free {
		if refs[i] != 0 {
			t.Fatalf("reachable cell %d is on the free list", i)
		}
	}
	if got := tr.vals.inUse(); got != records {
		t.Fatalf("%d value records in use, %d reachable leaves hold one", got, records)
	}
}

// TestArenaStaysFlat: put/seal/delete/commit/release churn with 8
// versions retained frees as many cells as it takes, so after warm-up the
// arena adds no page.
func TestArenaStaysFlat(t *testing.T) {
	const rounds, warmup, retained = 100_000, 1_000, 8
	tr := New()
	var kept []Version
	pages := 0
	for i := uint64(0); i < rounds; i++ {
		// A receipt per round, sealed 16 rounds on; a commitment per
		// round, deleted 4 rounds on.
		must(t, tr.Put(seqKey(0, i), []byte(fmt.Sprint(i))))
		must(t, tr.Put(seqKey(1, i), []byte("commitment")))
		if i >= 4 {
			must(t, tr.Delete(seqKey(1, i-4)))
		}
		if i >= 16 {
			must(t, tr.Seal(seqKey(0, i-16)))
		}
		kept = append(kept, tr.Snapshot())
		if len(kept) > retained {
			tr.Release(kept[0])
			kept = kept[1:]
		}
		switch {
		case i == warmup:
			pages = len(tr.cells.pages)
		case i > warmup && len(tr.cells.pages) != pages:
			t.Fatalf("round %d: the arena grew from %d to %d pages (%d cells in use)", i, pages, len(tr.cells.pages), tr.cells.inUse())
		}
	}
	checkArena(t, tr)
}

// TestStaleViewsAcrossReclamation: Views opened before EvictVersion and
// Release keep reading while head writes reuse the cells those calls
// freed. The evicted version's View faults its nodes in and proves
// byte-identically; the released one's fails with ErrUnknownVersion once
// Release has returned, and never reads a reused cell. Run with -race.
func TestStaleViewsAcrossReclamation(t *testing.T) {
	const n = 128
	tr := New()
	src := newMapSource()
	tr.SetNodeSource(src)
	k := func(i int) [KeySize]byte { return key(fmt.Sprintf("stale%d", i%n)) }
	// mid is key i's value in the released version.
	mid := func(i int) []byte {
		if i%n%2 == 0 {
			return []byte(fmt.Sprintf("mid%d", i%n))
		}
		return []byte(fmt.Sprintf("old%d", i%n))
	}
	for i := 0; i < n; i++ {
		must(t, tr.Put(k(i), []byte(fmt.Sprintf("old%d", i))))
	}
	evicted := tr.Snapshot()
	if _, err := tr.FlushRoot(src); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i += 2 {
		must(t, tr.Put(k(i), mid(i)))
	}
	released := tr.Snapshot()
	ev, err := tr.At(evicted)
	if err != nil {
		t.Fatal(err)
	}
	rel, err := tr.At(released)
	if err != nil {
		t.Fatal(err)
	}
	want := make([][]byte, n)
	for i := range want {
		p, err := ev.Prove(k(i))
		if err != nil {
			t.Fatal(err)
		}
		want[i] = *p
	}

	var gone atomic.Bool // set once Release has returned
	var reads atomic.Int64
	// await lets the readers make another 100 passes.
	await := func() {
		for target := reads.Load() + 100; reads.Load() < target; {
			runtime.Gosched()
		}
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	errc := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			failed := false
			for i := g; ; i += 3 {
				select {
				case <-stop:
					return
				default:
				}
				if p, err := ev.Prove(k(i)); err != nil || !bytes.Equal(*p, want[i%n]) {
					errc <- fmt.Errorf("reader %d: the evicted version's proof of key %d changed: %v", g, i%n, err)
					return
				}
				if v, err := ev.Value(k(i)); err != nil || string(v) != fmt.Sprintf("old%d", i%n) {
					errc <- fmt.Errorf("reader %d: the evicted version's value of key %d = %q, %v", g, i%n, v, err)
					return
				}
				after := gone.Load()
				p, err := rel.Prove(k(i))
				switch {
				case err == nil && (after || failed):
					errc <- fmt.Errorf("reader %d: a released version still proves", g)
					return
				case err == nil:
					if VerifyMembership(rel.Root(), k(i), cryptoutil.HashBytes(mid(i)), p) != nil {
						errc <- fmt.Errorf("reader %d: the released version's proof of key %d does not verify", g, i%n)
						return
					}
				case !errors.Is(err, ErrUnknownVersion):
					errc <- fmt.Errorf("reader %d: the released version failed with %v", g, err)
					return
				default:
					failed = true
				}
				reads.Add(1)
			}
		}(g)
	}

	await()
	tr.EvictVersion(evicted)
	tr.Release(released)
	gone.Store(true)
	if len(tr.cells.free) == 0 {
		t.Fatal("evicting and releasing freed no cell")
	}
	pages := len(tr.cells.pages)
	for i := 0; i < 2000; i++ {
		must(t, tr.Put(k(i), []byte(fmt.Sprintf("new%d", i))))
		if i%7 == 0 {
			must(t, tr.Delete(k(i+1)))
		}
		if i%50 == 0 {
			tr.Release(tr.Snapshot())
		}
		if i%500 == 0 {
			await()
		}
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}
	if len(tr.cells.pages) != pages {
		t.Errorf("head writes grew the arena from %d to %d pages instead of reusing the freed cells", pages, len(tr.cells.pages))
	}
	for i := range want {
		if p, err := ev.Prove(k(i)); err != nil || !bytes.Equal(*p, want[i]) {
			t.Fatalf("the evicted version's proof of key %d changed: %v", i, err)
		}
	}
	if _, err := rel.Get(k(0)); !errors.Is(err, ErrUnknownVersion) {
		t.Fatalf("a released version's Get = %v, want ErrUnknownVersion", err)
	}
	checkArena(t, tr)
}
