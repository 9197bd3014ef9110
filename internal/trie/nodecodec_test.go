package trie

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/cryptoutil"
)

// mapSource is a minimal in-test NodeSource: mutex-guarded hash→bytes
// maps for nodes and values. Keeping it local to the trie package keeps
// these tests free of a dependency on internal/nodestore (which is itself
// tested against the same contract).
type mapSource struct {
	mu   sync.Mutex
	m    map[cryptoutil.Hash][]byte
	vals map[cryptoutil.Hash][]byte
	puts []cryptoutil.Hash // flush order, for the post-order check
}

// decodeNode parses a node encoded by encodeNode into a cell of its own and
// verifies that its content re-hashes to h (see decodeInto).
func decodeNode(h cryptoutil.Hash, enc []byte) (*cell, error) {
	c := new(cell)
	if err := decodeInto(c, h, enc); err != nil {
		return nil, err
	}
	return c, nil
}

func newMapSource() *mapSource {
	return &mapSource{m: make(map[cryptoutil.Hash][]byte), vals: make(map[cryptoutil.Hash][]byte)}
}

func (s *mapSource) ValuePut(h cryptoutil.Hash, value []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.vals[h]; !ok {
		s.vals[h] = append([]byte(nil), value...)
	}
	return nil
}

func (s *mapSource) ValueGet(h cryptoutil.Hash) ([]byte, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	value, ok := s.vals[h]
	return value, ok, nil
}

func (s *mapSource) NodePut(h cryptoutil.Hash, enc []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.m[h]; !ok {
		s.m[h] = append([]byte(nil), enc...)
		s.puts = append(s.puts, h)
	}
	return nil
}

func (s *mapSource) NodeGet(h cryptoutil.Hash) ([]byte, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	enc, ok := s.m[h]
	if !ok {
		return nil, false, nil
	}
	return append([]byte(nil), enc...), true, nil
}

func (s *mapSource) NodeHas(h cryptoutil.Hash) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.m[h]
	return ok
}

// buildMixedTrie populates a trie with hashed keys, sealed sequential
// regions (stubs + collapses), and structured sequential keys that force
// extension nodes.
func buildMixedTrie(t *testing.T, tr *Trie, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		must(t, tr.Set(key(fmt.Sprintf("mix%d", i)), val(fmt.Sprintf("mv%d", i))))
	}
	for i := uint64(0); i < 24; i++ {
		must(t, tr.Set(seqKey(7, i), val(fmt.Sprintf("sq%d", i))))
	}
	for i := uint64(0); i < 16; i++ {
		must(t, tr.Seal(seqKey(7, i)))
	}
}

func TestNodeCodecRoundTripAllShapes(t *testing.T) {
	tr := New(WithCapacity(100_000))
	buildMixedTrie(t, tr, 64)
	src := newMapSource()
	if _, err := tr.FlushRoot(src); err != nil {
		t.Fatal(err)
	}
	if len(src.m) == 0 {
		t.Fatal("flush stored nothing")
	}
	// Every stored node decodes, re-hashes to its address, and re-encodes
	// to the identical bytes (canonical encoding).
	for h, enc := range src.m {
		n, err := decodeNode(h, enc)
		if err != nil {
			t.Fatalf("decode %x: %v", h[:8], err)
		}
		if got := n.hash(); got != h {
			t.Fatalf("re-hash %x != address %x", got[:8], h[:8])
		}
		if again := encodeNode(n); !bytes.Equal(again, enc) {
			t.Fatalf("re-encode of %x not canonical", h[:8])
		}
	}
}

func TestNodeCodecRejectsCorruption(t *testing.T) {
	tr := New()
	buildMixedTrie(t, tr, 16)
	src := newMapSource()
	if _, err := tr.FlushRoot(src); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	for h, enc := range src.m {
		mut := append([]byte(nil), enc...)
		mut[rng.Intn(len(mut))] ^= 1 << uint(rng.Intn(8))
		if _, err := decodeNode(h, mut); err == nil {
			t.Fatalf("corrupt node %x decoded without error", h[:8])
		}
		// Truncation is rejected too.
		if len(enc) > 1 {
			if _, err := decodeNode(h, enc[:len(enc)-1]); err == nil {
				t.Fatalf("truncated node %x decoded without error", h[:8])
			}
		}
	}
}

// FuzzNodeCodecDecode feeds arbitrary bytes to the persisted node format:
// decoding never panics, and an accepted node is canonical — it re-encodes
// to the same bytes and decodes under its own content hash and no other.
func FuzzNodeCodecDecode(f *testing.F) {
	h := val("child")
	f.Add([]byte{})
	leaf := leafCell(bitsPath(1, 0, 1, 1, 0), val("v"), true)
	branch := branchCell(hashOnly(h, false), hashOnly(h, true))
	ext := extCell(bitsPath(0, 1, 1), hashOnly(h, false))
	f.Add(encodeNode(&leaf))
	f.Add(encodeNode(&branch))
	f.Add(encodeNode(&ext))
	// A live child with the empty hash would re-encode as an empty child.
	f.Add(append([]byte{ncBranch, ncChildEmpty, ncChildHash}, make([]byte, cryptoutil.HashSize)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		var n cell
		if err := parseInto(&n, data); err != nil {
			return
		}
		if again := encodeNode(&n); !bytes.Equal(again, data) {
			t.Fatalf("accepted %x, re-encodes to %x", data, again)
		}
		addr := n.hash()
		back, err := decodeNode(addr, data)
		if err != nil || back.hash() != addr {
			t.Fatalf("node does not decode under its own hash %x: %v", addr[:8], err)
		}
		addr[0] ^= 1
		if _, err := decodeNode(addr, data); err == nil {
			t.Fatal("node decoded under a foreign address")
		}
	})
}

// TestFlushRootPostOrder checks the WAL durability invariant directly:
// every node is written strictly after all of its children, so any log
// prefix ending at a root record describes a complete trie.
func TestFlushRootPostOrder(t *testing.T) {
	tr := New()
	buildMixedTrie(t, tr, 64)
	src := newMapSource()
	if _, err := tr.FlushRoot(src); err != nil {
		t.Fatal(err)
	}
	seen := make(map[cryptoutil.Hash]bool)
	for _, h := range src.puts {
		n, err := decodeNode(h, src.m[h])
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range childRefsOf(n) {
			// Sealed children collapse to opaque commitments with no
			// stored node; empty children have no hash at all.
			if c.sealed() || c.hash.IsZero() {
				continue
			}
			if !seen[c.hash] {
				t.Fatalf("node %x flushed before its child %x", h[:8], c.hash[:8])
			}
		}
		seen[h] = true
	}
}

// childRefsOf lists a decoded node's child slots (none for leaves).
func childRefsOf(c *cell) []slot {
	switch c.kind() {
	case kindBranch:
		return c.kids[:]
	case kindExt:
		return c.kids[:1]
	default:
		return nil
	}
}

// branchCell returns a branch over the two child slots.
func branchCell(a, b slot) cell {
	return cell{kids: [2]slot{a, b}, head: cellHead(kindBranch, false)}
}

// extCell returns an extension over path p to the child slot.
func extCell(p path, child slot) cell {
	c := cell{kids: [2]slot{child}, head: cellHead(kindExt, false)}
	c.setPath(p)
	return c
}

// TestFlushIsIncremental checks the O(delta) property: re-flushing after
// a small head change writes only the path to the changed leaf, not the
// whole trie again.
func TestFlushIsIncremental(t *testing.T) {
	tr := New()
	buildMixedTrie(t, tr, 256)
	src := newMapSource()
	first, err := tr.FlushRoot(src)
	if err != nil {
		t.Fatal(err)
	}
	must(t, tr.Set(key("mix3"), val("changed")))
	second, err := tr.FlushRoot(src)
	if err != nil {
		t.Fatal(err)
	}
	if second >= first/2 {
		t.Fatalf("incremental flush wrote %d nodes (initial %d): dedup not effective", second, first)
	}
	if second == 0 {
		t.Fatal("changed head flushed zero nodes")
	}
}

func TestEvictVersionFaultsBackIn(t *testing.T) {
	tr := New()
	src := newMapSource()
	tr.SetNodeSource(src)
	buildMixedTrie(t, tr, 64)
	v := tr.Snapshot()
	if _, err := tr.FlushRoot(src); err != nil {
		t.Fatal(err)
	}

	// Reference reads and proofs before eviction.
	view, err := tr.At(v)
	if err != nil {
		t.Fatal(err)
	}
	wantRoot := view.Root()
	preProof, err := view.Prove(key("mix9"))
	if err != nil {
		t.Fatal(err)
	}
	preBytes := []byte(*preProof)

	tr.EvictVersion(v)

	// The evicted version serves identical reads and proofs by faulting
	// nodes in from the source.
	view, err = tr.At(v)
	if err != nil {
		t.Fatal(err)
	}
	if view.Root() != wantRoot {
		t.Fatalf("evicted view root %v, want %v", view.Root(), wantRoot)
	}
	got, err := view.Get(key("mix9"))
	if err != nil || got != val("mv9") {
		t.Fatalf("evicted Get = %v, %v", got, err)
	}
	postProof, err := view.Prove(key("mix9"))
	if err != nil {
		t.Fatal(err)
	}
	postBytes := []byte(*postProof)
	if !bytes.Equal(preBytes, postBytes) {
		t.Fatal("proof bytes changed across eviction")
	}
	// Sealed semantics survive eviction.
	if _, err := view.Get(seqKey(7, 3)); !errors.Is(err, ErrSealed) {
		t.Fatalf("sealed read through evicted version: %v", err)
	}
}

func TestRestoreHeadColdOpen(t *testing.T) {
	// Build, flush, and record the head; then restore into a fresh trie
	// as a cold open would.
	tr := New()
	buildMixedTrie(t, tr, 64)
	src := newMapSource()
	if _, err := tr.FlushRoot(src); err != nil {
		t.Fatal(err)
	}
	root := tr.Root()

	back := New()
	back.SetNodeSource(src)
	back.RestoreHead(root, false, RestoredCounts{
		Nodes:       tr.NodeCount(),
		Leaves:      tr.Len(),
		SealedRefs:  tr.SealedCount(),
		TotalAllocs: tr.NodeCount(),
	}, 7)

	if back.Root() != root {
		t.Fatalf("restored root %v, want %v", back.Root(), root)
	}
	if back.NodeCount() != tr.NodeCount() || back.Len() != tr.Len() || back.SealedCount() != tr.SealedCount() {
		t.Fatal("restored counters diverge")
	}
	// Reads fault in from the source.
	got, err := back.Get(key("mix17"))
	if err != nil || got != val("mv17") {
		t.Fatalf("restored Get = %v, %v", got, err)
	}
	if _, err := back.Get(seqKey(7, 2)); !errors.Is(err, ErrSealed) {
		t.Fatalf("restored sealed read: %v", err)
	}
	// Proofs from the restored head verify against the original root.
	proof, err := back.Prove(key("mix5"))
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyMembership(root, key("mix5"), val("mv5"), proof); err != nil {
		t.Fatal(err)
	}

	// Mutations through faulted nodes reproduce the in-memory trie
	// exactly: apply the same writes to both and compare roots.
	must(t, tr.Set(key("after"), val("av")))
	must(t, tr.Delete(key("mix0")))
	must(t, tr.Seal(seqKey(7, 16)))
	must(t, back.Set(key("after"), val("av")))
	must(t, back.Delete(key("mix0")))
	must(t, back.Seal(seqKey(7, 16)))
	if back.Root() != tr.Root() {
		t.Fatalf("restored trie diverged after identical writes: %v vs %v", back.Root(), tr.Root())
	}
}

func TestRestoreVersionServesHistory(t *testing.T) {
	tr := New()
	src := newMapSource()
	tr.SetNodeSource(src)
	must(t, tr.Set(key("a"), val("1")))
	v1 := tr.Snapshot()
	if _, err := tr.FlushRoot(src); err != nil {
		t.Fatal(err)
	}
	r1 := tr.Root()
	must(t, tr.Set(key("a"), val("2")))
	must(t, tr.Set(key("b"), val("3")))
	if _, err := tr.FlushRoot(src); err != nil {
		t.Fatal(err)
	}
	r2 := tr.Root()

	back := New()
	back.SetNodeSource(src)
	back.RestoreHead(r2, false, RestoredCounts{Nodes: tr.NodeCount(), Leaves: tr.Len()}, uint64(v1)+2)
	back.RestoreVersion(v1, r1, false)

	view, err := back.At(v1)
	if err != nil {
		t.Fatal(err)
	}
	got, err := view.Get(key("a"))
	if err != nil || got != val("1") {
		t.Fatalf("restored historical Get = %v, %v", got, err)
	}
	if _, err := view.Get(key("b")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("restored historical version sees future key: %v", err)
	}
}

// TestEvictedVersionConcurrentWithHeadWrites is the race gate for lazy
// faulting: many goroutines read and prove against evicted historical
// versions while the head keeps mutating. Run with -race.
func TestEvictedVersionConcurrentWithHeadWrites(t *testing.T) {
	tr := New()
	src := newMapSource()
	tr.SetNodeSource(src)
	buildMixedTrie(t, tr, 128)
	v := tr.Snapshot()
	if _, err := tr.FlushRoot(src); err != nil {
		t.Fatal(err)
	}
	tr.EvictVersion(v)
	view, err := tr.At(v)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	errc := make(chan error, 8)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k := key(fmt.Sprintf("mix%d", (g*31+i)%128))
				if got, err := view.Get(k); err != nil || got != val(fmt.Sprintf("mv%d", (g*31+i)%128)) {
					errc <- fmt.Errorf("reader %d: Get = %v, %v", g, got, err)
					return
				}
				if _, err := view.Prove(k); err != nil {
					errc <- fmt.Errorf("reader %d: Prove: %v", g, err)
					return
				}
			}
		}(g)
	}
	for i := 0; i < 500; i++ {
		must(t, tr.Set(key(fmt.Sprintf("mix%d", i%128)), val(fmt.Sprintf("w%d", i))))
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}
}
