package ibc

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/cryptoutil"
	"repro/internal/nodestore"
	"repro/internal/trie"
)

func openBacked(t *testing.T, dir string) *Store {
	t.Helper()
	ns, err := nodestore.Open(dir, nodestore.DiskConfig{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewStoreWithBackend(ns)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestPersistentStoreColdReopen(t *testing.T) {
	dir := t.TempDir()
	s := openBacked(t, dir)
	if !s.Persistent() {
		t.Fatal("backend not attached")
	}

	type sample struct {
		ver   Version
		value []byte
		proof []byte
	}
	var versions []Version
	samples := map[string]sample{}
	for i := 0; i < 6; i++ {
		p := fmt.Sprintf("acks/ports/transfer/channels/channel-0/sequences/%d", i)
		if err := s.Set(p, []byte(fmt.Sprintf("ack-%d", i))); err != nil {
			t.Fatal(err)
		}
		if err := s.Set("clients/c0/clientState", []byte(fmt.Sprintf("cs-%d", i))); err != nil {
			t.Fatal(err)
		}
		v := mustCommitAt(t, s, uint64(100+i))
		versions = append(versions, v)
		ro, err := s.At(v)
		if err != nil {
			t.Fatal(err)
		}
		val, proof, err := ro.ProveMembership(p)
		if err != nil {
			t.Fatal(err)
		}
		samples[p] = sample{ver: v, value: val, proof: proof}
	}
	// Seal one region and commit it too.
	if err := s.Set("sealed/entry", []byte("sv")); err != nil {
		t.Fatal(err)
	}
	if err := s.Seal("sealed/entry"); err != nil {
		t.Fatal(err)
	}
	lastVer := mustCommitAt(t, s, 200)
	wantRoot := s.Root()
	if err := s.SyncBackend(); err != nil {
		t.Fatal(err)
	}
	if err := s.CloseBackend(); err != nil {
		t.Fatal(err)
	}

	// Cold reopen: replay the WAL and restore the store.
	re := openBacked(t, dir)
	defer re.CloseBackend()
	if re.Root() != wantRoot {
		t.Fatalf("recovered root %v, want %v", re.Root(), wantRoot)
	}
	// The head's height is indexed: AtHeight(200) serves the head root.
	if ro, err := re.AtHeight(200); err != nil || ro.Root() != wantRoot {
		t.Fatalf("AtHeight(200) after reopen = %v, want the head root %v", err, wantRoot)
	}
	// Head reads fault in through the backend, values included.
	got, err := re.Get("clients/c0/clientState")
	if err != nil || string(got) != "cs-5" {
		t.Fatalf("recovered head Get = %q, %v", got, err)
	}
	if !re.IsSealed("sealed/entry") {
		t.Fatal("seal lost across reopen")
	}
	// Historical proofs are byte-identical to the pre-restart ones.
	for p, want := range samples {
		ro, err := re.At(want.ver)
		if err != nil {
			t.Fatalf("At(%d) after reopen: %v", want.ver, err)
		}
		val, proof, err := ro.ProveMembership(p)
		if err != nil {
			t.Fatalf("recovered proof %q: %v", p, err)
		}
		if !bytes.Equal(val, want.value) || !bytes.Equal(proof, want.proof) {
			t.Fatalf("proof %q diverged across reopen", p)
		}
	}
	// The version counter resumes past the recovered head: committing new
	// work does not collide with restored versions.
	if err := re.Set("new/path", []byte("nv")); err != nil {
		t.Fatal(err)
	}
	next := mustCommitAt(t, re, 201)
	if next <= lastVer {
		t.Fatalf("post-recovery commit version %d not after %d", next, lastVer)
	}
	if err := re.SyncBackend(); err != nil {
		t.Fatal(err)
	}
	_ = versions
}

func TestEvictReadsThroughBackend(t *testing.T) {
	s := openBacked(t, t.TempDir())
	defer s.CloseBackend()
	if err := s.Set("a/b", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	v1 := mustCommitAt(t, s, 1)
	if err := s.Set("a/b", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if err := s.Set("c/d", []byte("w")); err != nil {
		t.Fatal(err)
	}
	v2 := mustCommitAt(t, s, 2)

	ro, err := s.At(v1)
	if err != nil {
		t.Fatal(err)
	}
	wantVal, wantProof, err := ro.ProveMembership("a/b")
	if err != nil {
		t.Fatal(err)
	}

	s.evict(v1)

	// The evicted version reads and proves identically, faulting nodes
	// and values back from the backend.
	ro, err = s.At(v1)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ro.Get("a/b")
	if err != nil || string(got) != "v1" {
		t.Fatalf("evicted Get = %q, %v", got, err)
	}
	val, proof, err := ro.ProveMembership("a/b")
	if err != nil || !bytes.Equal(val, wantVal) || !bytes.Equal(proof, wantProof) {
		t.Fatalf("evicted proof diverged: %v", err)
	}
	// Head and the newer version are untouched.
	if got, err := s.Get("a/b"); err != nil || string(got) != "v2" {
		t.Fatalf("head Get after evict = %q, %v", got, err)
	}
	ro2, err := s.At(v2)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := ro2.Get("c/d"); err != nil || string(got) != "w" {
		t.Fatalf("v2 Get after evict = %q, %v", got, err)
	}
	if err := s.SyncBackend(); err != nil {
		t.Fatal(err)
	}
}

// TestEvictedConcurrentReaders is the -race gate at the store layer:
// goroutines read and prove against evicted disk-backed versions while
// the head keeps writing and committing.
func TestEvictedConcurrentReaders(t *testing.T) {
	s := openBacked(t, t.TempDir())
	defer s.CloseBackend()
	for i := 0; i < 32; i++ {
		if err := s.Set(fmt.Sprintf("k/%d", i), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	v := mustCommitAt(t, s, 1)
	s.evict(v)
	ro, err := s.At(v)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	errc := make(chan error, 4)
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
				p := fmt.Sprintf("k/%d", (g*7+i)%32)
				if got, err := ro.Get(p); err != nil || string(got) != fmt.Sprintf("v%d", (g*7+i)%32) {
					errc <- fmt.Errorf("reader %d: Get %q = %q, %v", g, p, got, err)
					return
				}
				if _, _, err := ro.ProveMembership(p); err != nil {
					errc <- fmt.Errorf("reader %d: prove %q: %v", g, p, err)
					return
				}
			}
		}(g)
	}
	for i := 0; i < 40; i++ {
		if err := s.Set(fmt.Sprintf("k/%d", i%32), []byte(fmt.Sprintf("w%d", i))); err != nil {
			t.Fatal(err)
		}
		if i%8 == 7 {
			mustCommitAt(t, s, uint64(2+i/8))
		}
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}
	if err := s.SyncBackend(); err != nil {
		t.Fatal(err)
	}
}

// TestStaleReadOnlyStoresAcrossReclamation: read-only stores opened before
// the window releases and evicts their versions keep reading while head
// writes reuse the trie cells those commits freed. The evicted height
// serves the same values and byte-identical proofs from the backend; the
// released one fails with ErrUnknownVersion once the commit that pushed it
// out has returned. Run with -race.
func TestStaleReadOnlyStoresAcrossReclamation(t *testing.T) {
	const n = 32
	s := openBacked(t, t.TempDir())
	defer s.CloseBackend()
	p := func(i int) string { return fmt.Sprintf("stale/%d", i%n) }
	for i := 0; i < n; i++ {
		if err := s.Set(p(i), []byte(fmt.Sprintf("old%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	mustCommitAt(t, s, 1)
	for i := 0; i < n; i++ {
		if err := s.Set(p(i), []byte(fmt.Sprintf("mid%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	mustCommitAt(t, s, 2)
	rel, err := s.AtHeight(1)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := s.AtHeight(2)
	if err != nil {
		t.Fatal(err)
	}
	want := make([][]byte, n)
	for i := range want {
		if _, want[i], err = ev.ProveMembership(p(i)); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	errc := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; ; i += 3 {
				select {
				case <-stop:
					return
				default:
				}
				v, proof, err := ev.ProveMembership(p(i))
				if err != nil || string(v) != fmt.Sprintf("mid%d", i%n) || !bytes.Equal(proof, want[i%n]) {
					errc <- fmt.Errorf("reader %d: the evicted version's %q changed: %q, %v", g, p(i), v, err)
					return
				}
				if v, _, err := rel.ProveMembership(p(i)); err == nil && string(v) != fmt.Sprintf("old%d", i%n) {
					errc <- fmt.Errorf("reader %d: the released version read %q for %q", g, v, p(i))
					return
				} else if err != nil && !errors.Is(err, ErrUnknownVersion) {
					errc <- fmt.Errorf("reader %d: the released version failed with %v", g, err)
					return
				}
			}
		}(g)
	}

	// Height 3's commit releases height 1 and evicts height 2; after it
	// every commit evicts the height before, so head writes keep reusing
	// freed cells while height 2 stays provable.
	s.SetProvableHeights(2)
	s.SetHotHeights(1)
	mustCommitAt(t, s, 3)
	s.SetProvableHeights(0)
	for i := 0; i < 200; i++ {
		if err := s.Set(p(i), []byte(fmt.Sprintf("new%d", i))); err != nil {
			t.Fatal(err)
		}
		if i%10 == 9 {
			mustCommitAt(t, s, uint64(4+i/10))
		}
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}
	if _, err := rel.Get(p(0)); !errors.Is(err, ErrUnknownVersion) {
		t.Fatalf("a released version's Get = %v, want ErrUnknownVersion", err)
	}
	if _, err := s.AtHeight(1); !errors.Is(err, ErrHeightPruned) {
		t.Fatalf("AtHeight(1) = %v, want ErrHeightPruned", err)
	}
	for i := range want {
		if _, proof, err := ev.ProveMembership(p(i)); err != nil || !bytes.Equal(proof, want[i]) {
			t.Fatalf("the evicted version's proof of %q changed: %v", p(i), err)
		}
	}
}

// TestValueRecordIntegrity: a value read back from the backend must hash
// to its leaf. A record stored under the wrong hash, a missing record and
// a failed read each come back as an error the caller can name with
// errors.Is — never as absence or as the wrong bytes.
func TestValueRecordIntegrity(t *testing.T) {
	dir := t.TempDir()
	d, err := nodestore.Open(dir, nodestore.DiskConfig{})
	if err != nil {
		t.Fatal(err)
	}
	// The forged record comes first, so the flush's honest put dedups.
	if err := d.ValuePut(cryptoutil.HashBytes([]byte("honest")), []byte("forged")); err != nil {
		t.Fatal(err)
	}
	s, err := NewStoreWithBackend(d)
	if err != nil {
		t.Fatal(err)
	}
	for p, v := range map[string]string{"x": "honest", "y": "ok"} {
		if err := s.Set(p, []byte(v)); err != nil {
			t.Fatal(err)
		}
	}
	v := mustCommitAt(t, s, 1)
	if got, err := s.Get("x"); err != nil || string(got) != "honest" {
		t.Fatalf("head Get = %q, %v; the head leaf holds its own bytes", got, err)
	}
	s.evict(v)
	ro, err := s.At(v)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ro.Get("x"); !errors.Is(err, trie.ErrValueCorrupt) {
		t.Fatalf("evicted Get of a forged record = %v, want ErrValueCorrupt", err)
	}
	if _, _, err := ro.ProveMembership("x"); !errors.Is(err, trie.ErrValueCorrupt) {
		t.Fatalf("evicted proof of a forged record = %v, want ErrValueCorrupt", err)
	}
	if got, err := ro.Get("y"); err != nil || string(got) != "ok" {
		t.Fatalf("evicted Get of an honest record = %q, %v", got, err)
	}
	if err := s.CloseBackend(); err != nil {
		t.Fatal(err)
	}
	re := openBacked(t, dir)
	defer re.CloseBackend()
	if _, err := re.Get("x"); !errors.Is(err, trie.ErrValueCorrupt) {
		t.Fatalf("recovered head Get of a forged record = %v, want ErrValueCorrupt", err)
	}

	// A backend whose value reads fail, or find nothing.
	errRead := errors.New("injected read failure")
	for _, c := range []struct {
		name string
		get  func() ([]byte, bool, error)
		want error
	}{
		{"failed read", func() ([]byte, bool, error) { return nil, false, errRead }, errRead},
		{"missing record", func() ([]byte, bool, error) { return nil, false, nil }, trie.ErrValueMissing},
	} {
		s, err := NewStoreWithBackend(valueGetter{nodestore.NewMem(), c.get})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Set("x", []byte("honest")); err != nil {
			t.Fatal(err)
		}
		v := s.commit()
		s.evict(v)
		ro, err := s.At(v)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ro.Get("x"); !errors.Is(err, c.want) {
			t.Fatalf("%s: Get = %v, want %v", c.name, err, c.want)
		}
		if ok, err := ro.Has("x"); err != nil || !ok {
			t.Fatalf("%s: Has = %v, %v; the leaf itself is intact", c.name, ok, err)
		}
	}
}

// valueGetter is a backend whose value reads are get.
type valueGetter struct {
	*nodestore.Mem
	get func() ([]byte, bool, error)
}

func (v valueGetter) ValueGet(cryptoutil.Hash) ([]byte, bool, error) { return v.get() }

// TestReopenedStoreAnswersAtHeight: a reopened store indexes every
// recovered version under the height its root record names, so AtHeight
// proves byte for byte what At did before the restart; a height no
// recovered record names reports ErrUnknownHeight, and the index refuses
// the recovered heights again.
func TestReopenedStoreAnswersAtHeight(t *testing.T) {
	dir := t.TempDir()
	s := openBacked(t, dir)
	s.SetProvableHeights(2)
	type proved struct{ value, proof []byte }
	want := map[uint64]proved{}
	for h := uint64(1); h <= 3; h++ {
		if err := s.Set("a/b", []byte(fmt.Sprint("v", h))); err != nil {
			t.Fatal(err)
		}
		ro, err := s.At(mustCommitAt(t, s, h))
		if err != nil {
			t.Fatal(err)
		}
		val, proof, err := ro.ProveMembership("a/b")
		if err != nil {
			t.Fatal(err)
		}
		want[h] = proved{val, proof}
	}
	if err := s.SyncBackend(); err != nil {
		t.Fatal(err)
	}
	if err := s.CloseBackend(); err != nil {
		t.Fatal(err)
	}

	re := openBacked(t, dir)
	defer re.CloseBackend()
	for _, h := range []uint64{2, 3} {
		ro, err := re.AtHeight(h)
		if err != nil {
			t.Fatalf("AtHeight(%d) after reopen: %v", h, err)
		}
		val, proof, err := ro.ProveMembership("a/b")
		if err != nil || !bytes.Equal(val, want[h].value) || !bytes.Equal(proof, want[h].proof) {
			t.Fatalf("AtHeight(%d) after reopen proves differently: %v", h, err)
		}
	}
	// Height 1 was released before the cut and 4 never committed: the log
	// names neither.
	for _, h := range []uint64{0, 1, 4} {
		if _, err := re.AtHeight(h); !errors.Is(err, ErrUnknownHeight) {
			t.Fatalf("AtHeight(%d) after reopen = %v, want ErrUnknownHeight", h, err)
		}
	}
	if _, err := re.CommitAt(3); !errors.Is(err, ErrHeightOrder) {
		t.Fatalf("committing recovered height 3 again = %v, want ErrHeightOrder", err)
	}
	mustCommitAt(t, re, 4)
	if _, err := re.AtHeight(4); err != nil {
		t.Fatalf("AtHeight(4) after a post-reopen commit: %v", err)
	}
}

// TestReopenRefusesNonIncreasingHeights: root records whose heights do not
// increase fail the reopen with ErrHeightOrder rather than reaching the
// height index.
func TestReopenRefusesNonIncreasingHeights(t *testing.T) {
	dir := t.TempDir()
	ns, err := nodestore.Open(dir, nodestore.DiskConfig{})
	if err != nil {
		t.Fatal(err)
	}
	root := NewStore().Root()
	for v := uint64(1); v <= 2; v++ {
		if err := ns.CommitRoot(nodestore.RootRecord{Version: v, Root: root, Height: 7}); err != nil {
			t.Fatal(err)
		}
	}
	if err := ns.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := nodestore.Open(dir, nodestore.DiskConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if _, err := NewStoreWithBackend(re); !errors.Is(err, ErrHeightOrder) {
		t.Fatalf("reopening heights 7, 7 = %v, want ErrHeightOrder", err)
	}
}
