package ibc

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
)

// Provable history: the store indexes its versions by the chain heights
// that committed them, and keeps a window of the newest heights provable.
//
// A chain commits a version per height with CommitAt, or, when a block
// changed nothing, maps the height to the newest version with ShareAt. The
// heights that share a version are therefore adjacent, and the version
// stays retained until the last of them leaves the provable window. With a
// backend attached, a version whose heights have all left the hot window
// is evicted: it stays provable, faulting its nodes back from the backend.

// Errors of a height lookup. A relayer that meets ErrHeightPruned retries
// against a newer root; ErrUnknownHeight names a height no block committed.
var (
	ErrHeightPruned  = errors.New("ibc: height pruned from the provable window")
	ErrUnknownHeight = errors.New("ibc: unknown height")
)

// heightVersion is one height of the provable window and the version it
// reads.
type heightVersion struct {
	height  uint64
	version Version
}

// SetProvableHeights states how many of the newest heights stay provable;
// the next commit releases every version whose heights all fell out. 0
// keeps every height. Like every mutation, it is the writer's call.
func (s *Store) SetProvableHeights(n int) { s.provable = n }

// SetHotHeights states, for a store with a backend, how many of the newest
// heights keep their versions on the heap; the next commit evicts every
// version whose heights all fell out. 0 evicts nothing.
func (s *Store) SetHotHeights(n int) { s.hot = n }

// CommitAt freezes the current contents as the version of height, which
// must exceed every height indexed before, and trims the window. O(1) for
// the in-heap store: the trie snapshots structurally, values and all. With
// a backend attached the version's delta is appended to the log, its root
// record naming height, so recovery can report which block the durable
// state belongs to.
func (s *Store) CommitAt(height uint64) Version {
	s.mu.Lock()
	defer s.mu.Unlock()
	v := s.trie.Snapshot()
	if s.backend != nil {
		if err := s.flushLocked(v, height); err != nil && s.flushErr == nil {
			s.flushErr = err
		}
	}
	s.indexLocked(height, v)
	return v
}

// ShareAt maps height, which must exceed every height indexed before, to
// the newest committed version without committing: the block at height
// changed nothing. It trims the window as CommitAt does.
func (s *Store) ShareAt(height uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.indexLocked(height, s.heights[len(s.heights)-1].version)
}

// indexLocked appends height → v to the window, then releases the versions
// whose heights all left the provable window and evicts those whose heights
// all left the hot one. Called with mu held.
func (s *Store) indexLocked(height uint64, v Version) {
	if n := len(s.heights); n > 0 && height <= s.heights[n-1].height {
		panic(fmt.Sprintf("ibc: height %d indexed after %d", height, s.heights[n-1].height))
	}
	if s.first == 0 {
		s.first = height
	}
	s.heights = append(s.heights, heightVersion{height, v})
	for s.provable > 0 && len(s.heights) > s.provable {
		old := s.heights[0]
		s.heights = s.heights[1:]
		s.evicted = max(s.evicted-1, 0)
		if s.heights[0].version != old.version {
			s.releaseLocked(old.version)
		}
	}
	for s.backend != nil && s.hot > 0 && len(s.heights)-s.evicted > s.hot {
		old := s.heights[s.evicted]
		s.evicted++
		if s.heights[s.evicted].version != old.version {
			s.trie.EvictVersion(old.version)
		}
	}
}

// releaseLocked drops a retained version, letting the trie cells only it
// reached be reused, and records the release in the backend's log. Called
// with mu held.
func (s *Store) releaseLocked(v Version) {
	s.trie.Release(v)
	if s.backend != nil {
		if err := s.backend.ReleaseVersion(uint64(v)); err != nil && s.flushErr == nil {
			s.flushErr = err
		}
	}
}

// AtHeight returns a read-only view of the version height committed or
// shared. A height that was indexed but left the provable window reports
// ErrHeightPruned; any other height without a version, ErrUnknownHeight.
func (s *Store) AtHeight(height uint64) (*ReadOnlyStore, error) {
	s.mu.Lock()
	i, found := slices.BinarySearchFunc(s.heights, height, func(e heightVersion, h uint64) int {
		return cmp.Compare(e.height, h)
	})
	var v Version
	if found {
		v = s.heights[i].version
	}
	pruned := i == 0 && s.first != 0 && height >= s.first
	s.mu.Unlock()
	switch {
	case found:
		return s.At(v)
	case pruned:
		return nil, fmt.Errorf("%w: %d", ErrHeightPruned, height)
	}
	return nil, fmt.Errorf("%w: %d", ErrUnknownHeight, height)
}
