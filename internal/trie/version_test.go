package trie

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/cryptoutil"
)

func TestSnapshotFreezesContents(t *testing.T) {
	tr := New()
	for i := 0; i < 64; i++ {
		if err := tr.Set(key(fmt.Sprintf("k%d", i)), val(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	root1 := tr.Root()
	v1 := tr.Snapshot()

	// Mutate the head heavily: overwrite, insert, delete, seal.
	for i := 0; i < 64; i++ {
		if err := tr.Set(key(fmt.Sprintf("k%d", i)), val(fmt.Sprintf("new%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 64; i < 128; i++ {
		if err := tr.Set(key(fmt.Sprintf("k%d", i)), val(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Delete(key("k3")); err != nil {
		t.Fatal(err)
	}
	if err := tr.Seal(key("k7")); err != nil {
		t.Fatal(err)
	}

	view, err := tr.At(v1)
	if err != nil {
		t.Fatal(err)
	}
	if view.Root() != root1 {
		t.Fatalf("view root = %v, want frozen %v", view.Root(), root1)
	}
	if r, err := tr.version(v1); err != nil || r.hash != root1 {
		t.Fatalf("version %d root = %v, %v; want %v", v1, r.hash, err, root1)
	}
	for i := 0; i < 64; i++ {
		got, err := view.Get(key(fmt.Sprintf("k%d", i)))
		if err != nil {
			t.Fatalf("view.Get(k%d): %v", i, err)
		}
		if want := val(fmt.Sprintf("v%d", i)); got != want {
			t.Fatalf("view.Get(k%d) = %v, want original %v", i, got, want)
		}
	}
	// Keys inserted after the snapshot are provably absent in the view.
	if ok, err := view.Has(key("k100")); err != nil || ok {
		t.Fatalf("view.Has(k100) = %v, %v; want absent", ok, err)
	}
	// The deleted and sealed keys are intact in the old version.
	if got, err := view.Get(key("k3")); err != nil || got != val("v3") {
		t.Fatalf("view.Get(deleted k3) = %v, %v; want v3", got, err)
	}
	if got, err := view.Get(key("k7")); err != nil || got != val("v7") {
		t.Fatalf("view.Get(sealed k7) = %v, %v; want v7", got, err)
	}
}

func TestVersionProofsByteIdentical(t *testing.T) {
	// Proofs generated from a retained version must equal, byte for byte,
	// the proofs the head produced while that state was current.
	tr := New()
	for i := 0; i < 48; i++ {
		if err := tr.Set(key(fmt.Sprintf("p%d", i)), val(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	root := tr.Root()

	before := make(map[int][]byte)
	for i := 0; i < 48; i++ {
		p, err := tr.Prove(key(fmt.Sprintf("p%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		b := []byte(*p)
		before[i] = b
	}
	absentBefore, err := tr.Prove(key("absent"))
	if err != nil {
		t.Fatal(err)
	}

	v := tr.Snapshot()
	for i := 0; i < 200; i++ {
		if err := tr.Set(key(fmt.Sprintf("q%d", i)), val("x")); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Seal(key("p5")); err != nil {
		t.Fatal(err)
	}

	view, err := tr.At(v)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 48; i++ {
		p, err := view.Prove(key(fmt.Sprintf("p%d", i)))
		if err != nil {
			t.Fatalf("view.Prove(p%d): %v", i, err)
		}
		got := []byte(*p)
		if !reflect.DeepEqual(got, before[i]) {
			t.Fatalf("proof for p%d changed across snapshot", i)
		}
		if err := VerifyMembership(root, key(fmt.Sprintf("p%d", i)), val(fmt.Sprintf("v%d", i)), p); err != nil {
			t.Fatalf("historical membership proof p%d: %v", i, err)
		}
	}
	absentAfter, err := view.Prove(key("absent"))
	if err != nil {
		t.Fatal(err)
	}
	gotAbs := []byte(*absentAfter)
	wantAbs := []byte(*absentBefore)
	if !reflect.DeepEqual(gotAbs, wantAbs) {
		t.Fatal("non-membership proof changed across snapshot")
	}
	if err := VerifyNonMembership(root, key("absent"), absentAfter); err != nil {
		t.Fatalf("historical non-membership proof: %v", err)
	}
}

func TestSealAtHeadKeepsHistoricalProofs(t *testing.T) {
	// The tentpole invariant: sealing (and collapsing) at head must not
	// invalidate proofs served from a retained version, even though the
	// head frees the collapsed nodes.
	tr := New()
	var seq [KeySize]byte
	put := func(i int) [KeySize]byte {
		k := seq
		k[KeySize-1] = byte(i)
		return k
	}
	for i := 0; i < 16; i++ {
		if err := tr.Set(put(i), val(fmt.Sprintf("r%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	root := tr.Root()
	v := tr.Snapshot()

	// Seal every sequential key: subtrees saturate and collapse, freeing
	// the head's nodes.
	for i := 0; i < 16; i++ {
		if err := tr.Seal(put(i)); err != nil {
			t.Fatal(err)
		}
	}
	view, err := tr.At(v)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		p, err := view.Prove(put(i))
		if err != nil {
			t.Fatalf("prove r%d from retained version after head seal: %v", i, err)
		}
		if err := VerifyMembership(root, put(i), val(fmt.Sprintf("r%d", i)), p); err != nil {
			t.Fatalf("verify r%d: %v", i, err)
		}
	}
	// Head, meanwhile, refuses: the data is sealed there.
	if _, err := tr.Prove(put(0)); !errors.Is(err, ErrSealed) {
		t.Fatalf("head Prove after seal = %v, want ErrSealed", err)
	}
}

func TestReleaseAndUnknownVersion(t *testing.T) {
	tr := New()
	if err := tr.Set(key("a"), val("1")); err != nil {
		t.Fatal(err)
	}
	v := tr.Snapshot()
	if tr.RetainedVersions() != 1 {
		t.Fatalf("RetainedVersions = %d, want 1", tr.RetainedVersions())
	}
	tr.Release(v)
	if tr.RetainedVersions() != 0 {
		t.Fatalf("RetainedVersions after release = %d, want 0", tr.RetainedVersions())
	}
	if _, err := tr.At(v); !errors.Is(err, ErrUnknownVersion) {
		t.Fatalf("At(released) = %v, want ErrUnknownVersion", err)
	}
	if _, err := tr.At(Version(9999)); !errors.Is(err, ErrUnknownVersion) {
		t.Fatalf("At(bogus) = %v, want ErrUnknownVersion", err)
	}
	tr.Release(v) // releasing twice is a no-op
}

func TestHeadCountersIgnoreCopyOnWrite(t *testing.T) {
	// Storage-deposit accounting describes the logical head: path-copying
	// for a retained version must not move NodeCount or TotalAllocs.
	tr := New()
	for i := 0; i < 32; i++ {
		if err := tr.Set(key(fmt.Sprintf("c%d", i)), val("v")); err != nil {
			t.Fatal(err)
		}
	}
	nodes, allocs, frees := tr.NodeCount(), tr.TotalAllocs(), tr.TotalFrees()
	tr.Snapshot()
	// Overwrites path-copy the whole descent but change no logical node.
	for i := 0; i < 32; i++ {
		if err := tr.Set(key(fmt.Sprintf("c%d", i)), val("w")); err != nil {
			t.Fatal(err)
		}
	}
	if tr.NodeCount() != nodes || tr.TotalAllocs() != allocs || tr.TotalFrees() != frees {
		t.Fatalf("counters moved on COW overwrite: nodes %d→%d allocs %d→%d frees %d→%d",
			nodes, tr.NodeCount(), allocs, tr.TotalAllocs(), frees, tr.TotalFrees())
	}
	if tr.StorageBytes() != nodes*storageBytes {
		t.Fatalf("StorageBytes = %d, want %d", tr.StorageBytes(), nodes*storageBytes)
	}
}

func TestSharedNodeRatio(t *testing.T) {
	tr := New()
	if got := tr.SharedNodeRatio(); got != 1 {
		t.Fatalf("empty SharedNodeRatio = %v, want 1", got)
	}
	for i := 0; i < 128; i++ {
		if err := tr.Set(key(fmt.Sprintf("s%d", i)), val("v")); err != nil {
			t.Fatal(err)
		}
	}
	tr.Snapshot()
	if got := tr.SharedNodeRatio(); got != 1 {
		t.Fatalf("ratio right after snapshot = %v, want 1", got)
	}
	if err := tr.Set(key("s0"), val("w")); err != nil {
		t.Fatal(err)
	}
	got := tr.SharedNodeRatio()
	if got <= 0 || got >= 1 {
		t.Fatalf("ratio after one overwrite = %v, want in (0,1)", got)
	}
}

func TestVersionedRandomisedAgainstMaps(t *testing.T) {
	// Randomised churn with periodic snapshots: every retained version must
	// keep matching the map state captured when it was taken.
	rng := rand.New(rand.NewSource(7))
	tr := New()
	live := map[[KeySize]byte]cryptoutil.Hash{}
	type frozen struct {
		v    Version
		want map[[KeySize]byte]cryptoutil.Hash
		root cryptoutil.Hash
	}
	var snaps []frozen

	keys := make([][KeySize]byte, 96)
	for i := range keys {
		keys[i] = key(fmt.Sprintf("rk%d", i))
	}
	for step := 0; step < 2000; step++ {
		k := keys[rng.Intn(len(keys))]
		switch rng.Intn(3) {
		case 0, 1:
			v := val(fmt.Sprintf("rv%d", step))
			if err := tr.Set(k, v); err == nil {
				live[k] = v
			}
		case 2:
			if err := tr.Delete(k); err == nil {
				delete(live, k)
			}
		}
		if step%250 == 0 {
			want := make(map[[KeySize]byte]cryptoutil.Hash, len(live))
			for kk, vv := range live {
				want[kk] = vv
			}
			snaps = append(snaps, frozen{v: tr.Snapshot(), want: want, root: tr.Root()})
		}
	}
	for i, s := range snaps {
		view, err := tr.At(s.v)
		if err != nil {
			t.Fatalf("snap %d: %v", i, err)
		}
		if view.Root() != s.root {
			t.Fatalf("snap %d root drifted", i)
		}
		for _, k := range keys {
			got, err := view.Get(k)
			want, ok := s.want[k]
			if ok {
				if err != nil || got != want {
					t.Fatalf("snap %d key %x: got %v, %v; want %v", i, k[:4], got, err, want)
				}
			} else if !errors.Is(err, ErrNotFound) {
				t.Fatalf("snap %d key %x: err = %v, want ErrNotFound", i, k[:4], err)
			}
		}
	}
}

func TestConcurrentHistoricalReadsDuringHeadWrites(t *testing.T) {
	// Hammer retained-version reads from many goroutines while the single
	// writer churns the head. Run under -race (make race) this pins the
	// writer-never-touches-frozen-nodes invariant.
	tr := New()
	for i := 0; i < 256; i++ {
		if err := tr.Set(key(fmt.Sprintf("h%d", i)), val(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	root := tr.Root()
	v := tr.Snapshot()
	view, err := tr.At(v)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k := key(fmt.Sprintf("h%d", (g*37+i)%256))
				got, err := view.Get(k)
				if err != nil {
					errs <- fmt.Errorf("reader %d: %v", g, err)
					return
				}
				if got != val(fmt.Sprintf("v%d", (g*37+i)%256)) {
					errs <- fmt.Errorf("reader %d: wrong value", g)
					return
				}
				p, err := view.Prove(k)
				if err != nil {
					errs <- fmt.Errorf("reader %d prove: %v", g, err)
					return
				}
				if err := VerifyMembership(root, k, got, p); err != nil {
					errs <- fmt.Errorf("reader %d verify: %v", g, err)
					return
				}
			}
		}(g)
	}

	for i := 0; i < 2000; i++ {
		k := key(fmt.Sprintf("h%d", i%256))
		if err := tr.Set(k, val(fmt.Sprintf("w%d", i))); err != nil {
			t.Fatal(err)
		}
		if i%100 == 0 {
			sv := tr.Snapshot()
			tr.Release(sv)
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

// TestPutValueVersions: a leaf written by Put holds its value bytes, so
// versions keep the bytes they were snapshotted with, a seal drops them,
// Set leaves a hash alone, and a flushed and evicted version faults them
// back in by the leaf's value hash, checked against it.
func TestPutValueVersions(t *testing.T) {
	tr := New()
	ns := newMapSource()
	tr.SetNodeSource(ns)
	buf := []byte("first")
	must(t, tr.Put(key("a"), buf))
	must(t, tr.Put(key("b"), []byte("shared")))
	copy(buf, "XXXXX") // Put keeps its own copy
	if h, err := tr.Get(key("a")); err != nil || h != cryptoutil.HashBytes([]byte("first")) {
		t.Fatalf("Get after Put = %v, %v; want the value's hash", h.Short(), err)
	}
	v1 := tr.Snapshot()
	if _, err := tr.FlushRoot(ns); err != nil {
		t.Fatal(err)
	}
	if len(ns.vals) != 2 {
		t.Fatalf("flush stored %d values, want 2", len(ns.vals))
	}
	must(t, tr.Put(key("a"), []byte("second")))
	must(t, tr.Seal(key("b")))
	must(t, tr.Set(key("c"), val("hash only")))
	if got, err := tr.Value(key("a")); err != nil || string(got) != "second" {
		t.Fatalf("head Value(a) = %q, %v", got, err)
	}
	if _, err := tr.Value(key("b")); !errors.Is(err, ErrSealed) {
		t.Fatalf("head Value(sealed) = %v, want ErrSealed", err)
	}
	if _, err := tr.Value(key("c")); !errors.Is(err, ErrValueMissing) {
		t.Fatalf("head Value(hash only) = %v, want ErrValueMissing", err)
	}
	if _, err := tr.Value(key("d")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("head Value(absent) = %v, want ErrNotFound", err)
	}
	view := func() *View {
		t.Helper()
		v, err := tr.At(v1)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	for _, evicted := range []bool{false, true} {
		if evicted {
			tr.EvictVersion(v1)
		}
		for name, want := range map[string]string{"a": "first", "b": "shared"} {
			if got, err := view().Value(key(name)); err != nil || string(got) != want {
				t.Fatalf("version Value(%s) (evicted %v) = %q, %v; want %q", name, evicted, got, err, want)
			}
		}
	}
	first := cryptoutil.HashBytes([]byte("first"))
	ns.vals[first] = []byte("forged")
	if _, err := view().Value(key("a")); !errors.Is(err, ErrValueCorrupt) {
		t.Fatalf("evicted Value of a forged record = %v, want ErrValueCorrupt", err)
	}
	delete(ns.vals, first)
	if _, err := view().Value(key("a")); !errors.Is(err, ErrValueMissing) {
		t.Fatalf("evicted Value of a missing record = %v, want ErrValueMissing", err)
	}
}
