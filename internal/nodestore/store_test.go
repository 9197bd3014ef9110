package nodestore

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/cryptoutil"
)

// contract tests run against every Store implementation.
func forEachStore(t *testing.T, f func(t *testing.T, s Store)) {
	t.Helper()
	t.Run("mem", func(t *testing.T) { f(t, NewMem()) })
	t.Run("disk", func(t *testing.T) {
		d, err := Open(t.TempDir(), DiskConfig{})
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		f(t, d)
	})
}

func h(s string) cryptoutil.Hash { return cryptoutil.HashBytes([]byte(s)) }

func TestStoreNodeContract(t *testing.T) {
	forEachStore(t, func(t *testing.T, s Store) {
		if s.NodeHas(h("a")) {
			t.Fatal("fresh store has node")
		}
		if _, ok, err := s.NodeGet(h("a")); ok || err != nil {
			t.Fatalf("NodeGet on empty = %v, %v", ok, err)
		}
		enc := []byte("encoded-node-a")
		if err := s.NodePut(h("a"), enc); err != nil {
			t.Fatal(err)
		}
		// Idempotent re-put (content-addressed dedup).
		if err := s.NodePut(h("a"), enc); err != nil {
			t.Fatal(err)
		}
		if !s.NodeHas(h("a")) {
			t.Fatal("NodeHas false after put")
		}
		got, ok, err := s.NodeGet(h("a"))
		if err != nil || !ok || !bytes.Equal(got, enc) {
			t.Fatalf("NodeGet = %q, %v, %v", got, ok, err)
		}
		st := s.Stats()
		if st.NodesWritten != 1 || st.NodesDeduped != 1 {
			t.Fatalf("stats written=%d deduped=%d, want 1/1", st.NodesWritten, st.NodesDeduped)
		}
	})
}

func TestStoreValueContract(t *testing.T) {
	forEachStore(t, func(t *testing.T, s Store) {
		if _, ok, err := s.ValueGet(h("v1")); ok || err != nil {
			t.Fatalf("ValueGet on empty = %v, %v", ok, err)
		}
		// Values are content-addressed: one record per hash, whatever path
		// or version writes it, and no tombstones — a version that no
		// longer holds a value simply no longer addresses its hash.
		for _, v := range []string{"v1", "v2", "v1"} {
			if err := s.ValuePut(h(v), []byte(v)); err != nil {
				t.Fatal(err)
			}
		}
		for _, v := range []string{"v1", "v2"} {
			got, ok, err := s.ValueGet(h(v))
			if err != nil || !ok || string(got) != v {
				t.Fatalf("ValueGet(%s) = %q, %v, %v", v, got, ok, err)
			}
		}
		if _, ok, err := s.ValueGet(h("v3")); ok || err != nil {
			t.Fatalf("ValueGet of an unknown hash = %v, %v", ok, err)
		}
		// The store keeps what it was given; checking that the bytes hash
		// to their address is the reader's job (the trie's fault-in).
		if err := s.ValuePut(h("honest"), []byte("forged")); err != nil {
			t.Fatal(err)
		}
		if got, ok, err := s.ValueGet(h("honest")); err != nil || !ok || string(got) != "forged" {
			t.Fatalf("ValueGet of a mislabelled record = %q, %v, %v", got, ok, err)
		}
	})
}

func TestStoreRootsAndSync(t *testing.T) {
	forEachStore(t, func(t *testing.T, s Store) {
		for v := uint64(1); v <= 4; v++ {
			if err := s.CommitRoot(RootRecord{Version: v, Root: h(fmt.Sprintf("r%d", v)), Height: v * 10}); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.ReleaseVersion(2); err != nil {
			t.Fatal(err)
		}
		if err := s.Sync(); err != nil {
			t.Fatal(err)
		}
		st := s.Stats()
		if st.RootsCommitted != 4 || st.Syncs == 0 {
			t.Fatalf("stats roots=%d syncs=%d", st.RootsCommitted, st.Syncs)
		}
	})
}

func TestRecoveredFromRoots(t *testing.T) {
	if recoveredFromRoots(nil, nil) != nil {
		t.Fatal("no roots must recover to nil")
	}
	roots := []RootRecord{
		{Version: 1, Root: h("r1"), Height: 10},
		{Version: 2, Root: h("r2"), Height: 20},
		{Version: 3, Root: h("r3"), Height: 30},
	}
	rec := recoveredFromRoots(roots, map[uint64]struct{}{2: {}})
	if rec.Head.Version != 3 || rec.Head.Root != h("r3") || rec.Head.Height != 30 {
		t.Fatalf("head = %+v", rec.Head)
	}
	// Released version 2 is dropped; retained are sorted and include the
	// head's record.
	if len(rec.Retained) != 2 || rec.Retained[0].Version != 1 || rec.Retained[1].Version != 3 {
		t.Fatalf("retained = %+v", rec.Retained)
	}
	// A re-committed version (overwrite, e.g. after recovery resumed at
	// the same version counter) keeps only the newest root.
	roots = append(roots, RootRecord{Version: 3, Root: h("r3b"), Height: 31})
	rec = recoveredFromRoots(roots, nil)
	if rec.Head.Root != h("r3b") {
		t.Fatalf("head after re-commit = %+v", rec.Head)
	}
	for _, r := range rec.Retained {
		if r.Version == 3 && r.Root != h("r3b") {
			t.Fatalf("retained kept stale duplicate: %+v", r)
		}
	}
}
