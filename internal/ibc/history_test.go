package ibc

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
)

// commit commits the head at the height after the newest indexed one.
func (s *Store) commit() Version {
	s.mu.Lock()
	h := uint64(1)
	if n := len(s.heights); n > 0 {
		h = s.heights[n-1].height + 1
	}
	s.mu.Unlock()
	v, err := s.CommitAt(h)
	if err != nil {
		panic(err) // h is above every indexed height
	}
	return v
}

// mustCommitAt commits the head at height h, which the test indexes in
// order.
func mustCommitAt(t testing.TB, s *Store, h uint64) Version {
	t.Helper()
	v, err := s.CommitAt(h)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// release and evict drop or spill one version regardless of the window.
func (s *Store) release(v Version) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.releaseLocked(v)
}

func (s *Store) evict(v Version) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.backend != nil {
		s.trie.EvictVersion(v)
	}
}

// TestWindowReleasesAtLastHeight: with three provable heights, a version
// is released by the commit that pushes its last height out of the window
// and not before, so a version shared by two heights outlives the first.
func TestWindowReleasesAtLastHeight(t *testing.T) {
	s := NewStore()
	s.SetProvableHeights(3)
	var versions []Version       // versions[i] is the i-th commit
	reads := map[uint64]string{} // what each height reads
	for i, step := range []struct {
		commit   bool     // else the height shares the newest version
		retained []int    // commits still retained afterwards
		provable []uint64 // heights in the window afterwards
	}{
		{true, []int{0}, []uint64{1}},
		{false, []int{0}, []uint64{1, 2}},
		{true, []int{0, 1}, []uint64{1, 2, 3}},
		{true, []int{0, 1, 2}, []uint64{2, 3, 4}}, // height 1 left, height 2 keeps the first commit
		{false, []int{1, 2}, []uint64{3, 4, 5}},   // height 2, its last, left
		{false, []int{2}, []uint64{4, 5, 6}},
		{true, []int{2, 3}, []uint64{5, 6, 7}},
	} {
		h := uint64(i + 1)
		reads[h] = reads[h-1]
		if step.commit {
			reads[h] = fmt.Sprint(h)
			if err := s.Set("k", []byte(reads[h])); err != nil {
				t.Fatal(err)
			}
			versions = append(versions, mustCommitAt(t, s, h))
		} else if err := s.ShareAt(h); err != nil {
			t.Fatal(err)
		}
		retained := map[Version]bool{}
		for _, i := range step.retained {
			retained[versions[i]] = true
		}
		for i, v := range versions {
			if _, err := s.At(v); (err == nil) != retained[v] {
				t.Fatalf("after height %d: commit %d retained = %v, want %v", h, i, err == nil, retained[v])
			}
		}
		if got := s.RetainedVersions(); got != len(step.retained) {
			t.Fatalf("after height %d: %d retained versions, want %d", h, got, len(step.retained))
		}
		if got := len(s.heights); got != len(step.provable) {
			t.Fatalf("after height %d: %d provable heights, want %d", h, got, len(step.provable))
		}
		for _, ph := range step.provable {
			ro, err := s.AtHeight(ph)
			if err != nil {
				t.Fatalf("after height %d: AtHeight(%d): %v", h, ph, err)
			}
			if got, err := ro.Get("k"); err != nil || string(got) != reads[ph] {
				t.Fatalf("after height %d: height %d reads %q, %v; want %q", h, ph, got, err, reads[ph])
			}
		}
		for old := uint64(1); old < step.provable[0]; old++ {
			if _, err := s.AtHeight(old); !errors.Is(err, ErrHeightPruned) {
				t.Fatalf("after height %d: AtHeight(%d) = %v, want ErrHeightPruned", h, old, err)
			}
		}
	}
}

// TestPrunedAndUnknownHeightsDiffer: a height that left the window is
// pruned; one below the first commit, in a gap, or beyond the newest is
// unknown, and neither error is the other.
func TestPrunedAndUnknownHeightsDiffer(t *testing.T) {
	s := NewStore()
	s.SetProvableHeights(2)
	for _, h := range []uint64{10, 11, 12, 15} {
		if err := s.Set("k", []byte(fmt.Sprint(h))); err != nil {
			t.Fatal(err)
		}
		mustCommitAt(t, s, h)
	}
	for h, want := range map[uint64]error{0: ErrUnknownHeight, 9: ErrUnknownHeight, 10: ErrHeightPruned,
		11: ErrHeightPruned, 13: ErrUnknownHeight, 16: ErrUnknownHeight} {
		_, err := s.AtHeight(h)
		other := ErrUnknownHeight
		if want == ErrUnknownHeight {
			other = ErrHeightPruned
		}
		if !errors.Is(err, want) || errors.Is(err, other) {
			t.Fatalf("AtHeight(%d) = %v, want %v", h, err, want)
		}
	}
	if _, err := s.AtHeight(12); err != nil {
		t.Fatalf("AtHeight(12) = %v", err)
	}
	// Heights only move forward: a refused height indexes nothing.
	retained := s.RetainedVersions()
	if _, err := s.CommitAt(15); !errors.Is(err, ErrHeightOrder) {
		t.Fatalf("committing height 15 twice = %v, want ErrHeightOrder", err)
	}
	if err := s.ShareAt(14); !errors.Is(err, ErrHeightOrder) {
		t.Fatalf("sharing height 14 after 15 = %v, want ErrHeightOrder", err)
	}
	if got := s.RetainedVersions(); got != retained {
		t.Fatalf("refused heights changed the retained versions: %d -> %d", retained, got)
	}
	if _, err := s.AtHeight(16); !errors.Is(err, ErrUnknownHeight) {
		t.Fatalf("AtHeight(16) after refused commits = %v, want ErrUnknownHeight", err)
	}
	if err := NewStore().ShareAt(1); !errors.Is(err, ErrUnknownVersion) {
		t.Fatalf("sharing a height on an empty store = %v, want ErrUnknownVersion", err)
	}
}

// TestEvictedHeightProvesThroughDisk: with three provable heights and one
// hot, each commit evicts the version before it to the disk backend and
// releases the one three heights back. An evicted height reads from the
// backend and proves byte for byte what it proved while on the heap; the
// hot one reads the heap alone.
func TestEvictedHeightProvesThroughDisk(t *testing.T) {
	s := openBacked(t, t.TempDir())
	defer s.CloseBackend()
	s.SetProvableHeights(3)
	s.SetHotHeights(1)
	type proved struct{ value, proof []byte }
	want := map[uint64]proved{}
	for h := uint64(1); h <= 6; h++ {
		for i := 0; i < 8; i++ {
			if err := s.Set(fmt.Sprintf("k/%d", i), []byte(fmt.Sprintf("v%d@%d", i, h))); err != nil {
				t.Fatal(err)
			}
		}
		mustCommitAt(t, s, h)
		ro, err := s.AtHeight(h)
		if err != nil {
			t.Fatal(err)
		}
		val, proof, err := ro.ProveMembership("k/3")
		if err != nil {
			t.Fatal(err)
		}
		want[h] = proved{val, proof}
	}
	for h := uint64(4); h <= 6; h++ {
		ro, err := s.AtHeight(h)
		if err != nil {
			t.Fatal(err)
		}
		reads := s.backend.Stats().NodeReads
		val, proof, err := ro.ProveMembership("k/3")
		if err != nil || !bytes.Equal(val, want[h].value) || !bytes.Equal(proof, want[h].proof) {
			t.Fatalf("height %d: proof diverged (%q, %v)", h, val, err)
		}
		if evicted := s.backend.Stats().NodeReads > reads; evicted != (h < 6) {
			t.Fatalf("height %d read the backend: %v, want %v", h, evicted, h < 6)
		}
	}
	if err := s.SyncBackend(); err != nil {
		t.Fatal(err)
	}
}
