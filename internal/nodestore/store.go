// Package nodestore provides the pluggable, content-addressed state
// backend behind the trie's copy-on-write store: a hash→encoded-node map
// and a hash→value-bytes map (a leaf's value under the value hash the leaf
// commits to), plus the root records and releases the ibc.Store needs to
// survive a restart. Versions live in the trie alone: a version's values
// are whatever its leaves' hashes address.
//
// Two implementations ship:
//
//   - Mem: plain in-heap maps. Attaching it changes nothing observable —
//     it exists so the durability plumbing can be unit-tested without
//     touching disk.
//   - Disk: an append-only write-ahead log with CRC-framed records,
//     batched group fsync, content-addressed dedup, and crash-recovery
//     replay to the last durable root (see disk.go).
//
// The interface is deliberately wider than trie.NodeSource (the Node* and
// Value* methods): the trie only resolves and flushes nodes and values,
// while the ibc.Store additionally persists root records and version
// releases. Any Store satisfies trie.NodeSource.
package nodestore

import (
	"repro/internal/cryptoutil"
)

// RootRecord freezes one committed version: the root commitment plus the
// head counters a recovered trie resumes with. A root record in the log
// asserts that every node and value record the version reaches precedes
// it (the trie's post-order flush discipline), so any log prefix ending at
// a root record is a complete, openable state.
type RootRecord struct {
	// Version is the trie/store version frozen by this commit.
	Version uint64
	// Root is the trie root commitment at this version.
	Root cryptoutil.Hash
	// Sealed marks a fully sealed (opaque) root reference.
	Sealed bool
	// Height is the chain height that produced this version (0 when the
	// store is not height-addressed).
	Height uint64
	// Nodes, Leaves and SealedRefs restore the O(1) trie counters.
	Nodes      int
	Leaves     int
	SealedRefs int
	// TotalAllocs and TotalFrees restore the cumulative storage-deposit
	// counters used by the §V experiments.
	TotalAllocs int
	TotalFrees  int
}

// RecoveredState is what a reopened store found in its log: the last
// durable root and every version that was still retained (committed and
// not released) at that point.
type RecoveredState struct {
	// Head is the newest durable root record; the trie resumes from it.
	Head RootRecord
	// Retained lists all durable, unreleased versions in commit order
	// (Head is the last entry).
	Retained []RootRecord
}

// Stats is a point-in-time snapshot of store counters.
type Stats struct {
	// NodesWritten counts distinct node records appended; NodesDeduped
	// counts NodePut calls skipped because the hash was already stored.
	NodesWritten uint64
	NodesDeduped uint64
	// NodeReads counts NodeGet calls that returned a node.
	NodeReads uint64
	// RootsCommitted counts CommitRoot calls.
	RootsCommitted uint64
	// Syncs counts explicit durability points (group fsyncs for Disk).
	Syncs uint64
	// SyncP99Ms is the 99th-percentile duration of recent syncs, in
	// milliseconds (0 for Mem).
	SyncP99Ms float64
	// BytesAppended is the total log payload written (0 for Mem).
	BytesAppended uint64
	// Segments is the number of log segment files (0 for Mem).
	Segments int
	// RecoveredRecords counts records replayed at Open (0 for Mem and for
	// fresh directories).
	RecoveredRecords uint64
}

// Store is the full backend contract used by ibc.Store. The Node* and
// Value* subset is exactly trie.NodeSource.
type Store interface {
	// NodePut stores an encoded node under its content hash. Re-storing a
	// known hash is a cheap no-op (dedup).
	NodePut(h cryptoutil.Hash, enc []byte) error
	// NodeGet returns the encoded node for h, or ok=false when unknown.
	NodeGet(h cryptoutil.Hash) ([]byte, bool, error)
	// NodeHas reports whether h is stored.
	NodeHas(h cryptoutil.Hash) bool

	// ValuePut stores a leaf's value bytes under their hash. Re-storing a
	// known hash is a cheap no-op (dedup).
	ValuePut(h cryptoutil.Hash, value []byte) error
	// ValueGet returns the value bytes stored under h, or ok=false when
	// unknown. The trie checks that they hash to h.
	ValueGet(h cryptoutil.Hash) ([]byte, bool, error)

	// CommitRoot appends the root record closing one version.
	CommitRoot(rec RootRecord) error
	// ReleaseVersion records that a version was pruned; recovery drops it
	// from the retained set.
	ReleaseVersion(ver uint64) error

	// Recovered returns the state replayed at construction, or nil when
	// the store started empty. The caller (ibc.NewStoreWithBackend)
	// resumes the trie from it.
	Recovered() *RecoveredState

	// Sync makes everything appended so far durable (group fsync). The
	// guest chain calls it on block finalisation, so "finalised" implies
	// "survives a crash".
	Sync() error
	// Close syncs and releases file handles. The store is unusable after.
	Close() error

	// Stats returns a snapshot of the store's counters.
	Stats() Stats
}
