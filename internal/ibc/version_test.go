package ibc

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/trie"
)

func TestStoreCommitAtRelease(t *testing.T) {
	s := NewStore()
	if err := s.Set("a/path", []byte("one")); err != nil {
		t.Fatal(err)
	}
	root1 := s.Root()
	v1 := s.Commit()

	if err := s.Set("a/path", []byte("two")); err != nil {
		t.Fatal(err)
	}
	if err := s.Set("b/path", []byte("b")); err != nil {
		t.Fatal(err)
	}

	snap, err := s.At(v1)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Version() != v1 {
		t.Fatalf("snap.Version = %d, want %d", snap.Version(), v1)
	}
	if snap.Root() != root1 {
		t.Fatal("snapshot root drifted after head writes")
	}
	got, err := snap.Get("a/path")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte("one")) {
		t.Fatalf("snap.Get = %q, want original %q", got, "one")
	}
	if ok, err := snap.Has("b/path"); err != nil || ok {
		t.Fatalf("snap.Has(b/path) = %v, %v; want absent", ok, err)
	}
	// Head still reads the new values.
	if got, err := s.Get("a/path"); err != nil || !bytes.Equal(got, []byte("two")) {
		t.Fatalf("head Get = %q, %v; want %q", got, err, "two")
	}

	s.Release(v1)
	if _, err := s.At(v1); !errors.Is(err, ErrUnknownVersion) {
		t.Fatalf("At(released) = %v, want ErrUnknownVersion", err)
	}
	s.Release(v1) // double release is a no-op
	if s.RetainedVersions() != 0 {
		t.Fatalf("RetainedVersions = %d, want 0", s.RetainedVersions())
	}
}

func TestVersionedProofsVerifyAgainstFrozenRoot(t *testing.T) {
	s := NewStore()
	for i := 0; i < 20; i++ {
		if err := s.Set(fmt.Sprintf("k/%d", i), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	root := s.Root()
	v := s.Commit()
	for i := 0; i < 20; i++ {
		if err := s.Set(fmt.Sprintf("k/%d", i), []byte("overwritten")); err != nil {
			t.Fatal(err)
		}
	}

	snap, err := s.At(v)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		path := fmt.Sprintf("k/%d", i)
		val, proof, err := snap.ProveMembership(path)
		if err != nil {
			t.Fatalf("ProveMembership(%s): %v", path, err)
		}
		if !bytes.Equal(val, []byte(fmt.Sprintf("v%d", i))) {
			t.Fatalf("proved value %q, want frozen %q", val, fmt.Sprintf("v%d", i))
		}
		if err := VerifyStoredMembership(root, path, val, proof); err != nil {
			t.Fatalf("verify %s: %v", path, err)
		}
	}
	absence, err := snap.ProveNonMembership("missing/path")
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyStoredNonMembership(root, "missing/path", absence); err != nil {
		t.Fatal(err)
	}
}

func TestSealAtHeadKeepsVersionedValue(t *testing.T) {
	// Sealing a receipt at head must not stop a retained version from
	// proving membership with the original value bytes.
	s := NewStore()
	if err := s.Set("receipt/1", []byte("delivered")); err != nil {
		t.Fatal(err)
	}
	root := s.Root()
	v := s.Commit()
	if err := s.Seal("receipt/1"); err != nil {
		t.Fatal(err)
	}
	if !s.IsSealed("receipt/1") {
		t.Fatal("head did not seal")
	}

	snap, err := s.At(v)
	if err != nil {
		t.Fatal(err)
	}
	val, proof, err := snap.ProveMembership("receipt/1")
	if err != nil {
		t.Fatalf("historical proof after head seal: %v", err)
	}
	if !bytes.Equal(val, []byte("delivered")) {
		t.Fatalf("historical value = %q, want %q", val, "delivered")
	}
	if err := VerifyStoredMembership(root, "receipt/1", val, proof); err != nil {
		t.Fatal(err)
	}
	// Deleted paths behave the same way.
	if err := s.Set("commitment/1", []byte("pending")); err != nil {
		t.Fatal(err)
	}
	root2 := s.Root()
	v2 := s.Commit()
	if err := s.Delete("commitment/1"); err != nil {
		t.Fatal(err)
	}
	snap2, err := s.At(v2)
	if err != nil {
		t.Fatal(err)
	}
	val2, proof2, err := snap2.ProveMembership("commitment/1")
	if err != nil {
		t.Fatalf("historical proof after head delete: %v", err)
	}
	if err := VerifyStoredMembership(root2, "commitment/1", val2, proof2); err != nil {
		t.Fatal(err)
	}
}

// TestReleaseFreesValues: a version's value bytes live in its leaves, so
// releasing every version that still reached an overwritten, deleted or
// sealed value lets the collector free it (a sealed stub keeps no bytes),
// while the surviving version keeps reading its own.
func TestReleaseFreesValues(t *testing.T) {
	s := NewStore()
	var freed atomic.Int32
	watch := func(r interface {
		Get(string) ([]byte, error)
	}, path string) {
		t.Helper()
		b, err := r.Get(path)
		if err != nil {
			t.Fatal(err)
		}
		// Values of 16 bytes or more get their own allocation, so the
		// finalizer runs exactly when nothing reaches the bytes.
		runtime.SetFinalizer(&b[0], func(*byte) { freed.Add(1) })
	}
	var versions []Version
	for i := 0; i < 10; i++ {
		if err := s.Set("hot", []byte(fmt.Sprintf("generation %02d of the hot value", i))); err != nil {
			t.Fatal(err)
		}
		watch(s, "hot")
		versions = append(versions, s.Commit())
	}
	for _, p := range []string{"gone", "sealed"} {
		if err := s.Set(p, []byte("a value retired at the head: "+p)); err != nil {
			t.Fatal(err)
		}
		watch(s, p)
	}
	v := s.Commit()
	if err := s.Delete("gone"); err != nil {
		t.Fatal(err)
	}
	if err := s.Seal("sealed"); err != nil {
		t.Fatal(err)
	}
	for _, v := range versions[:9] {
		s.Release(v)
	}
	s.Release(v)
	if n := s.RetainedVersions(); n != 1 {
		t.Fatalf("RetainedVersions = %d, want 1", n)
	}
	// The nine overwritten generations and the retired values are garbage.
	for i := 0; i < 100 && freed.Load() < 11; i++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if n := freed.Load(); n != 11 {
		t.Fatalf("%d of 11 released values freed", n)
	}
	// The surviving version still reads its value.
	snap, err := s.At(versions[9])
	if err != nil {
		t.Fatal(err)
	}
	if got, err := snap.Get("hot"); err != nil || string(got) != "generation 09 of the hot value" {
		t.Fatalf("survivor read = %q, %v; want generation 09", got, err)
	}
	if ok, err := s.Has("gone"); err != nil || ok {
		t.Fatalf("head Has(gone) = %v, %v; want absent", ok, err)
	}
}

func TestConcurrentVersionReadsDuringHeadWrites(t *testing.T) {
	// Run under -race (make race): versioned readers vs the single head
	// writer, across commits and releases.
	s := NewStore()
	for i := 0; i < 64; i++ {
		if err := s.Set(fmt.Sprintf("c/%d", i), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	root := s.Root()
	v := s.Commit()
	snap, err := s.At(v)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan error, 4)
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
				path := fmt.Sprintf("c/%d", (g*17+i)%64)
				val, proof, err := snap.ProveMembership(path)
				if err != nil {
					errs <- err
					return
				}
				if err := VerifyStoredMembership(root, path, val, proof); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	for i := 0; i < 500; i++ {
		if err := s.Set(fmt.Sprintf("c/%d", i%64), []byte(fmt.Sprintf("w%d", i))); err != nil {
			t.Fatal(err)
		}
		if i%50 == 0 {
			s.Release(s.Commit())
		}
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
}

func TestStoreVersionAfterTrieCapacityError(t *testing.T) {
	// A failed write (arena full) must leave retained versions readable.
	s := NewStore(trie.WithCapacity(8))
	if err := s.Set("a", []byte("1")); err != nil {
		t.Fatal(err)
	}
	v := s.Commit()
	for i := 0; ; i++ {
		if err := s.Set(fmt.Sprintf("fill/%d", i), []byte("x")); err != nil {
			if !errors.Is(err, trie.ErrFull) {
				t.Fatal(err)
			}
			break
		}
	}
	snap, err := s.At(v)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := snap.Get("a"); err != nil || !bytes.Equal(got, []byte("1")) {
		t.Fatalf("versioned read after ErrFull = %q, %v", got, err)
	}
}
