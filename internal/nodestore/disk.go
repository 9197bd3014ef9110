package nodestore

import (
	"bufio"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/wire"
)

// Disk is the WAL-backed Store. All state changes are appended to a single
// logical log split into segment files:
//
//	<dir>/seg-00000000.wal, seg-00000001.wal, ...
//
// Every record is framed as
//
//	u32 payload length | u32 CRC-32 (IEEE) of payload | payload
//
// and the payload starts with a one-byte record type (node, value, root,
// release). Node and value records are content-addressed: the type byte,
// the 32-byte hash the record is stored under, then its bytes (an encoded
// trie node, or a leaf's value bytes under the value hash the leaf commits
// to). Each hash is written once; the RAM index maps it to its location. Appends go through a bufio writer; durability is explicit:
// Sync flushes the buffer and fsyncs the active segment — one group fsync
// covers every record appended since the last one, which is what makes a
// per-block flush cheap (the guest syncs once per finalised block, not
// once per node).
//
// Recovery (Open on a non-empty directory) replays segments in order and
// stops at the first truncated or corrupt record, truncating the log
// there; the last complete root record in the valid prefix is the
// recovered head. Because the trie flushes nodes in post-order, each
// leaf's value before the leaf, and the ibc.Store appends the root record
// last, any prefix ending at a root record is a complete, openable state —
// this is the WAL invariant the kill-and-recover chaos test exercises.
//
// All methods are safe for concurrent use; reads of already-flushed data
// use pread so they do not disturb the append position.
type Disk struct {
	mu  sync.Mutex
	dir string
	cfg DiskConfig

	segs []*segment // closed segments + the active one (last)
	w    *bufio.Writer
	// appendOff is the logical end of the active segment (including
	// buffered bytes); flushedOff is how much of it the OS has.
	appendOff  int64
	flushedOff int64
	// durableSeg/durableOff mark the last fsync point; Crash discards
	// everything after it.
	durableSeg int
	durableOff int64

	nodes    map[cryptoutil.Hash]loc
	values   map[cryptoutil.Hash]loc
	roots    []RootRecord
	released map[uint64]struct{}

	recovered      *RecoveredState
	rootsSinceSync int
	closed         bool

	stats  Stats
	syncNs []int64 // ring of recent sync durations for the p99 stat
}

// DiskConfig tunes a Disk store. The zero value is usable.
type DiskConfig struct {
	// SegmentBytes rotates the active segment once it grows past this
	// size (checked at root boundaries). Default 64 MiB.
	SegmentBytes int64
	// SyncEvery issues a group fsync after this many root commits.
	// 0 means no automatic cadence: durability points come only from
	// explicit Sync calls (the guest's finalisation hook).
	SyncEvery int
}

// Record types. 0x02 was a per-path, per-version value delta; it is never
// reused, so such a record ends a replay as an unknown type.
const (
	recNode    byte = 0x01
	recRoot    byte = 0x03
	recRelease byte = 0x04
	recValue   byte = 0x05

	frameHeader     = 8       // u32 length + u32 crc
	maxRecordBytes  = 1 << 24 // sanity bound when scanning
	defaultSegBytes = 64 << 20
	syncRingSize    = 512
)

// ErrClosed is returned by operations on a closed or crashed store.
var ErrClosed = errors.New("nodestore: store is closed")

type segment struct {
	path string
	f    *os.File
	size int64
}

// loc addresses a record's data bytes inside a segment.
type loc struct {
	seg int
	off int64
	n   int
}

func segName(i int) string { return fmt.Sprintf("seg-%08d.wal", i) }

// Open opens (or creates) a disk store in dir, replaying any existing log.
// The recovered state, if any, is available from Recovered.
func Open(dir string, cfg DiskConfig) (*Disk, error) {
	if cfg.SegmentBytes <= 0 {
		cfg.SegmentBytes = defaultSegBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("nodestore: open %s: %w", dir, err)
	}
	d := &Disk{
		dir:      dir,
		cfg:      cfg,
		nodes:    make(map[cryptoutil.Hash]loc),
		values:   make(map[cryptoutil.Hash]loc),
		released: make(map[uint64]struct{}),
	}
	names, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	if err := d.replay(names); err != nil {
		return nil, err
	}
	if len(d.segs) == 0 {
		if err := d.addSegment(); err != nil {
			return nil, err
		}
	}
	active := d.segs[len(d.segs)-1]
	if _, err := active.f.Seek(active.size, 0); err != nil {
		return nil, fmt.Errorf("nodestore: seek %s: %w", active.path, err)
	}
	d.w = bufio.NewWriterSize(active.f, 1<<20)
	d.appendOff = active.size
	d.flushedOff = active.size
	d.durableSeg = len(d.segs) - 1
	d.durableOff = active.size
	d.recovered = recoveredFromRoots(d.roots, d.released)
	return d, nil
}

func listSegments(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("nodestore: read dir %s: %w", dir, err)
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && filepath.Ext(e.Name()) == ".wal" {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}

// replay scans the existing segments in order, rebuilding the in-memory
// index. It stops at the first invalid record, truncates that segment to
// the valid prefix and deletes any later segments — they are beyond the
// recoverable log.
func (d *Disk) replay(names []string) error {
	for i, name := range names {
		p := filepath.Join(d.dir, name)
		data, err := os.ReadFile(p)
		if err != nil {
			return fmt.Errorf("nodestore: replay %s: %w", p, err)
		}
		valid, perr := d.scanSegment(i, data)
		f, err := os.OpenFile(p, os.O_RDWR, 0o644)
		if err != nil {
			return fmt.Errorf("nodestore: replay %s: %w", p, err)
		}
		if valid < int64(len(data)) {
			if err := f.Truncate(valid); err != nil {
				f.Close()
				return fmt.Errorf("nodestore: truncate %s: %w", p, err)
			}
		}
		d.segs = append(d.segs, &segment{path: p, f: f, size: valid})
		if perr != nil {
			// Corruption mid-log: everything after it is unreachable.
			for _, later := range names[i+1:] {
				if err := os.Remove(filepath.Join(d.dir, later)); err != nil {
					return fmt.Errorf("nodestore: drop post-corruption segment: %w", err)
				}
			}
			break
		}
	}
	return nil
}

// scanSegment validates and indexes one segment's records, returning the
// length of the valid prefix and a non-nil error when the scan stopped
// early (truncated or corrupt tail).
func (d *Disk) scanSegment(seg int, data []byte) (int64, error) {
	r := wire.NewReader(data)
	for r.Remaining() > 0 {
		off := int64(len(data) - r.Remaining())
		n, wantCRC := r.U32(), r.U32()
		payload := r.Raw(int(n))
		switch {
		case r.Err() != nil:
			return off, fmt.Errorf("nodestore: truncated record: %w", r.Err())
		case n < 1 || n > maxRecordBytes:
			return off, fmt.Errorf("nodestore: bad record length %d", n)
		case crc32.ChecksumIEEE(payload) != wantCRC:
			return off, fmt.Errorf("nodestore: record CRC mismatch")
		}
		if err := d.indexRecord(seg, off+frameHeader, payload); err != nil {
			return off, err
		}
		d.stats.RecoveredRecords++
	}
	return int64(len(data)), nil
}

// indexRecord parses one replayed payload into the in-memory index.
// payloadOff is the payload's offset within its segment file.
func (d *Disk) indexRecord(seg int, payloadOff int64, payload []byte) error {
	r := wire.NewReader(payload)
	switch kind := r.U8(); kind {
	case recNode, recValue:
		h := r.Hash()
		if err := r.Err(); err != nil {
			return fmt.Errorf("nodestore: record %#x: %w", kind, err)
		}
		// The node's encoding or the value's bytes run to the end.
		index := d.index(kind)
		if _, ok := index[h]; !ok {
			index[h] = loc{seg: seg, off: payloadOff + int64(len(payload)-r.Remaining()), n: r.Remaining()}
		}
	case recRoot:
		rec := readRootRecord(r)
		if err := r.Done(); err != nil {
			return fmt.Errorf("nodestore: root record: %w", err)
		}
		d.roots = append(d.roots, rec)
	case recRelease:
		ver := r.U64()
		if err := r.Done(); err != nil {
			return fmt.Errorf("nodestore: release record: %w", err)
		}
		d.released[ver] = struct{}{}
	default:
		return fmt.Errorf("nodestore: unknown record type %#x", kind)
	}
	return nil
}

const rootRecordLen = 1 + 8 + cryptoutil.HashSize + 1 + 8 + 5*8

func encodeRootRecord(rec RootRecord) []byte {
	w := wire.NewWriterSize(rootRecordLen)
	w.U8(recRoot)
	w.U64(rec.Version)
	w.Hash(rec.Root)
	w.U8(flag(rec.Sealed))
	w.U64(rec.Height)
	w.U64(uint64(rec.Nodes))
	w.U64(uint64(rec.Leaves))
	w.U64(uint64(rec.SealedRefs))
	w.U64(uint64(rec.TotalAllocs))
	w.U64(uint64(rec.TotalFrees))
	return w.Bytes()
}

// readRootRecord reads what encodeRootRecord wrote after the type byte.
func readRootRecord(r *wire.Reader) RootRecord {
	var rec RootRecord
	rec.Version = r.U64()
	rec.Root = r.Hash()
	rec.Sealed = r.U8() != 0
	rec.Height = r.U64()
	rec.Nodes = int(r.U64())
	rec.Leaves = int(r.U64())
	rec.SealedRefs = int(r.U64())
	rec.TotalAllocs = int(r.U64())
	rec.TotalFrees = int(r.U64())
	return rec
}

func flag(b bool) uint8 {
	if b {
		return 1
	}
	return 0
}

func (d *Disk) addSegment() error {
	p := filepath.Join(d.dir, segName(len(d.segs)))
	f, err := os.OpenFile(p, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("nodestore: create segment: %w", err)
	}
	d.segs = append(d.segs, &segment{path: p, f: f})
	return nil
}

// appendLocked frames and buffers one payload, returning the offset of the
// payload's first byte within the active segment.
func (d *Disk) appendLocked(payload []byte) (int64, error) {
	hdr := wire.NewWriterSize(frameHeader)
	hdr.U32(uint32(len(payload)))
	hdr.U32(crc32.ChecksumIEEE(payload))
	if _, err := d.w.Write(hdr.Bytes()); err != nil {
		return 0, err
	}
	if _, err := d.w.Write(payload); err != nil {
		return 0, err
	}
	payloadOff := d.appendOff + frameHeader
	d.appendOff += frameHeader + int64(len(payload))
	d.segs[len(d.segs)-1].size = d.appendOff
	d.stats.BytesAppended += uint64(frameHeader + len(payload))
	return payloadOff, nil
}

// readAtLocked preads a record's data bytes, flushing the append buffer
// first when the data has not reached the OS yet.
func (d *Disk) readAtLocked(at loc) ([]byte, error) {
	if at.seg == len(d.segs)-1 && at.off+int64(at.n) > d.flushedOff {
		if err := d.w.Flush(); err != nil {
			return nil, err
		}
		d.flushedOff = d.appendOff
	}
	buf := make([]byte, at.n)
	if _, err := d.segs[at.seg].f.ReadAt(buf, at.off); err != nil {
		return nil, fmt.Errorf("nodestore: read segment %d @%d: %w", at.seg, at.off, err)
	}
	return buf, nil
}

// index returns the hash index of a content-addressed record type.
func (d *Disk) index(kind byte) map[cryptoutil.Hash]loc {
	if kind == recValue {
		return d.values
	}
	return d.nodes
}

// putLocked appends a content-addressed record of type kind unless h is
// already stored, reporting whether it appended.
func (d *Disk) putLocked(kind byte, h cryptoutil.Hash, data []byte) (bool, error) {
	if d.closed {
		return false, ErrClosed
	}
	index := d.index(kind)
	if _, ok := index[h]; ok {
		return false, nil
	}
	w := wire.NewWriterSize(1 + cryptoutil.HashSize + len(data))
	w.U8(kind)
	w.Hash(h)
	head := w.Len()
	w.Raw(data)
	off, err := d.appendLocked(w.Bytes())
	if err != nil {
		return false, err
	}
	index[h] = loc{seg: len(d.segs) - 1, off: off + int64(head), n: len(data)}
	return true, nil
}

// getLocked reads the content-addressed record of type kind stored under h.
func (d *Disk) getLocked(kind byte, h cryptoutil.Hash) ([]byte, bool, error) {
	if d.closed {
		return nil, false, ErrClosed
	}
	at, ok := d.index(kind)[h]
	if !ok {
		return nil, false, nil
	}
	buf, err := d.readAtLocked(at)
	if err != nil {
		return nil, false, err
	}
	return buf, true, nil
}

// NodePut appends a node record unless the hash is already stored (dedup).
func (d *Disk) NodePut(h cryptoutil.Hash, enc []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	added, err := d.putLocked(recNode, h, enc)
	switch {
	case added:
		d.stats.NodesWritten++
	case err == nil:
		d.stats.NodesDeduped++
	}
	return err
}

// NodeGet returns the encoded node for h.
func (d *Disk) NodeGet(h cryptoutil.Hash) ([]byte, bool, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	buf, ok, err := d.getLocked(recNode, h)
	if ok {
		d.stats.NodeReads++
	}
	return buf, ok, err
}

// NodeHas reports whether h is stored.
func (d *Disk) NodeHas(h cryptoutil.Hash) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	_, ok := d.nodes[h]
	return ok
}

// ValuePut appends a value record unless the hash is already stored
// (dedup).
func (d *Disk) ValuePut(h cryptoutil.Hash, value []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	_, err := d.putLocked(recValue, h, value)
	return err
}

// ValueGet returns the value bytes stored under h.
func (d *Disk) ValueGet(h cryptoutil.Hash) ([]byte, bool, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.getLocked(recValue, h)
}

// CommitRoot appends the root record closing one version, applies the
// group-fsync cadence and rotates the segment when it outgrew its cap.
func (d *Disk) CommitRoot(rec RootRecord) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrClosed
	}
	if _, err := d.appendLocked(encodeRootRecord(rec)); err != nil {
		return err
	}
	d.roots = append(d.roots, rec)
	d.stats.RootsCommitted++
	d.rootsSinceSync++
	if d.cfg.SyncEvery > 0 && d.rootsSinceSync >= d.cfg.SyncEvery {
		if err := d.syncLocked(); err != nil {
			return err
		}
	}
	if d.appendOff >= d.cfg.SegmentBytes {
		return d.rotateLocked()
	}
	return nil
}

// ReleaseVersion appends a release record so recovery drops the version.
func (d *Disk) ReleaseVersion(ver uint64) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrClosed
	}
	w := wire.NewWriterSize(1 + 8)
	w.U8(recRelease)
	w.U64(ver)
	if _, err := d.appendLocked(w.Bytes()); err != nil {
		return err
	}
	d.released[ver] = struct{}{}
	return nil
}

// rotateLocked seals the active segment (making it fully durable) and
// starts the next one. Rotation happens only at root boundaries, so every
// closed segment ends at a complete root record.
func (d *Disk) rotateLocked() error {
	if err := d.syncLocked(); err != nil {
		return err
	}
	if err := d.addSegment(); err != nil {
		return err
	}
	active := d.segs[len(d.segs)-1]
	d.w = bufio.NewWriterSize(active.f, 1<<20)
	d.appendOff = 0
	d.flushedOff = 0
	d.durableSeg = len(d.segs) - 1
	d.durableOff = 0
	return nil
}

// Dir returns the directory the store was opened in.
func (d *Disk) Dir() string { return d.dir }

// Recovered returns the state replayed at Open, or nil for a fresh store.
func (d *Disk) Recovered() *RecoveredState { return d.recovered }

// Sync flushes buffered records and fsyncs the active segment: one group
// fsync covering everything appended since the previous durability point.
func (d *Disk) Sync() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrClosed
	}
	return d.syncLocked()
}

func (d *Disk) syncLocked() error {
	start := time.Now()
	if err := d.w.Flush(); err != nil {
		return err
	}
	d.flushedOff = d.appendOff
	if err := d.segs[len(d.segs)-1].f.Sync(); err != nil {
		return err
	}
	d.durableSeg = len(d.segs) - 1
	d.durableOff = d.appendOff
	d.rootsSinceSync = 0
	d.stats.Syncs++
	if len(d.syncNs) < syncRingSize {
		d.syncNs = append(d.syncNs, time.Since(start).Nanoseconds())
	} else {
		d.syncNs[int(d.stats.Syncs)%syncRingSize] = time.Since(start).Nanoseconds()
	}
	return nil
}

// Crash simulates a power cut for the kill-and-recover tests: every byte
// not covered by the last fsync is discarded — the buffered tail is
// dropped, the durable segment is truncated to its fsync point and later
// segments are deleted. The store is closed afterwards; reopen it with
// Open to exercise recovery.
func (d *Disk) Crash() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrClosed
	}
	d.closed = true
	d.w = nil // drop buffered, never-written bytes
	for i := len(d.segs) - 1; i > d.durableSeg; i-- {
		d.segs[i].f.Close()
		if err := os.Remove(d.segs[i].path); err != nil {
			return fmt.Errorf("nodestore: crash: %w", err)
		}
	}
	durable := d.segs[d.durableSeg]
	if err := durable.f.Truncate(d.durableOff); err != nil {
		return fmt.Errorf("nodestore: crash: %w", err)
	}
	for i := 0; i <= d.durableSeg; i++ {
		d.segs[i].f.Close()
	}
	return nil
}

// Close syncs and releases all file handles.
func (d *Disk) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil
	}
	err := d.syncLocked()
	for _, s := range d.segs {
		if cerr := s.f.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	d.closed = true
	return err
}

// Stats returns a snapshot of the store's counters.
func (d *Disk) Stats() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	s := d.stats
	s.Segments = len(d.segs)
	s.SyncP99Ms = p99Ms(d.syncNs)
	return s
}

func p99Ms(ns []int64) float64 {
	if len(ns) == 0 {
		return 0
	}
	sorted := make([]int64, len(ns))
	copy(sorted, ns)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := (len(sorted)*99 + 99) / 100
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return float64(sorted[idx]) / 1e6
}
