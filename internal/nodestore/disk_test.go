package nodestore

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func openDisk(t *testing.T, dir string, cfg DiskConfig) *Disk {
	t.Helper()
	d, err := Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// writeVersion appends one version's worth of records: a few nodes, a
// value under its hash, and the closing root record.
func writeVersion(t *testing.T, d *Disk, v uint64) {
	t.Helper()
	for i := 0; i < 3; i++ {
		nh := h(fmt.Sprintf("n%d-%d", v, i))
		if err := d.NodePut(nh, []byte(fmt.Sprintf("enc %d %d", v, i))); err != nil {
			t.Fatal(err)
		}
	}
	val := fmt.Sprintf("val%d", v)
	if err := d.ValuePut(h(val), []byte(val)); err != nil {
		t.Fatal(err)
	}
	if err := d.CommitRoot(RootRecord{Version: v, Root: h(fmt.Sprintf("root%d", v)), Height: v}); err != nil {
		t.Fatal(err)
	}
}

func TestDiskReopenRecoversEverything(t *testing.T) {
	dir := t.TempDir()
	d := openDisk(t, dir, DiskConfig{})
	for v := uint64(1); v <= 5; v++ {
		writeVersion(t, d, v)
	}
	if err := d.ReleaseVersion(2); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	re := openDisk(t, dir, DiskConfig{})
	defer re.Close()
	rec := re.Recovered()
	if rec == nil {
		t.Fatal("no recovered state after reopen")
	}
	if rec.Head.Version != 5 || rec.Head.Root != h("root5") {
		t.Fatalf("head = %+v", rec.Head)
	}
	if len(rec.Retained) != 4 { // 1,3,4,5 — 2 released
		t.Fatalf("retained %d versions: %+v", len(rec.Retained), rec.Retained)
	}
	// Node and value reads work from the replayed index.
	got, ok, err := re.NodeGet(h("n3-1"))
	if err != nil || !ok || string(got) != "enc 3 1" {
		t.Fatalf("NodeGet after reopen = %q, %v, %v", got, ok, err)
	}
	val, ok, err := re.ValueGet(h("val4"))
	if err != nil || !ok || string(val) != "val4" {
		t.Fatalf("ValueGet after reopen = %q, %v, %v", val, ok, err)
	}
	if re.Stats().RecoveredRecords == 0 {
		t.Fatal("RecoveredRecords not counted")
	}
	// Appending after recovery keeps working.
	writeVersion(t, re, 6)
}

func TestDiskCrashDropsUnsyncedTail(t *testing.T) {
	dir := t.TempDir()
	d := openDisk(t, dir, DiskConfig{})
	writeVersion(t, d, 1)
	writeVersion(t, d, 2)
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	// Unsynced work: must vanish at the power cut.
	writeVersion(t, d, 3)
	writeVersion(t, d, 4)
	if err := d.Crash(); err != nil {
		t.Fatal(err)
	}
	if err := d.NodePut(h("late"), []byte("x")); err != ErrClosed {
		t.Fatalf("write after crash = %v, want ErrClosed", err)
	}

	re := openDisk(t, dir, DiskConfig{})
	defer re.Close()
	rec := re.Recovered()
	if rec == nil || rec.Head.Version != 2 || rec.Head.Root != h("root2") {
		t.Fatalf("recovered head = %+v, want version 2", rec)
	}
	if re.NodeHas(h("n3-0")) {
		t.Fatal("unsynced node survived the power cut")
	}
	if v, ok, err := re.ValueGet(h("val2")); err != nil || !ok || string(v) != "val2" {
		t.Fatalf("synced value after crash = %q, %v, %v; want val2", v, ok, err)
	}
	if _, ok, _ := re.ValueGet(h("val3")); ok {
		t.Fatal("unsynced value survived the power cut")
	}
}

func TestDiskCrashWithNoSyncRecoversNothing(t *testing.T) {
	dir := t.TempDir()
	d := openDisk(t, dir, DiskConfig{})
	writeVersion(t, d, 1)
	if err := d.Crash(); err != nil {
		t.Fatal(err)
	}
	re := openDisk(t, dir, DiskConfig{})
	defer re.Close()
	if re.Recovered() != nil {
		t.Fatalf("recovered %+v from a never-synced log", re.Recovered())
	}
}

func TestDiskSyncEveryCadence(t *testing.T) {
	dir := t.TempDir()
	d := openDisk(t, dir, DiskConfig{SyncEvery: 2})
	writeVersion(t, d, 1)
	writeVersion(t, d, 2) // cadence fsync here
	writeVersion(t, d, 3) // buffered only
	if d.Stats().Syncs == 0 {
		t.Fatal("cadence sync never fired")
	}
	if err := d.Crash(); err != nil {
		t.Fatal(err)
	}
	re := openDisk(t, dir, DiskConfig{})
	defer re.Close()
	rec := re.Recovered()
	if rec == nil || rec.Head.Version != 2 {
		t.Fatalf("recovered head = %+v, want the cadence point (version 2)", rec)
	}
}

// TestDiskCorruptTailTruncated flips a byte in the final record and
// verifies recovery lands on the longest valid prefix.
func TestDiskCorruptTailTruncated(t *testing.T) {
	dir := t.TempDir()
	d := openDisk(t, dir, DiskConfig{})
	writeVersion(t, d, 1)
	writeVersion(t, d, 2)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(dir, segName(0))
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the last root record's payload (the final rootRecordLen
	// bytes): CRC check must reject it.
	mut := append([]byte(nil), data...)
	mut[len(mut)-10] ^= 0xff
	if err := os.WriteFile(seg, mut, 0o644); err != nil {
		t.Fatal(err)
	}

	re := openDisk(t, dir, DiskConfig{})
	rec := re.Recovered()
	if rec == nil || rec.Head.Version != 1 || rec.Head.Root != h("root1") {
		t.Fatalf("recovered head = %+v, want version 1", rec)
	}
	// The corrupt tail was truncated away: the file now ends where the
	// valid prefix ended, and appends resume from there.
	writeVersion(t, re, 2)
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	re2 := openDisk(t, dir, DiskConfig{})
	defer re2.Close()
	if rec := re2.Recovered(); rec == nil || rec.Head.Version != 2 {
		t.Fatalf("after repair, head = %+v", rec)
	}
}

// TestDiskTruncatedFrameDropped cuts the file mid-frame (a torn write)
// and verifies the partial record is discarded.
func TestDiskTruncatedFrameDropped(t *testing.T) {
	dir := t.TempDir()
	d := openDisk(t, dir, DiskConfig{})
	writeVersion(t, d, 1)
	writeVersion(t, d, 2)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(dir, segName(0))
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(seg, data[:len(data)-5], 0o644); err != nil {
		t.Fatal(err)
	}
	re := openDisk(t, dir, DiskConfig{})
	defer re.Close()
	if rec := re.Recovered(); rec == nil || rec.Head.Version != 1 {
		t.Fatalf("recovered head = %+v, want version 1", rec)
	}
}

// TestDiskCorruptionDropsLaterSegments: corruption in segment 0 makes
// everything in later segments unreachable — they must be deleted, not
// replayed over the gap.
func TestDiskCorruptionDropsLaterSegments(t *testing.T) {
	dir := t.TempDir()
	d := openDisk(t, dir, DiskConfig{SegmentBytes: 256})
	for v := uint64(1); v <= 8; v++ {
		writeVersion(t, d, v)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	names, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) < 3 {
		t.Fatalf("rotation produced only %d segments", len(names))
	}
	// Corrupt the middle of segment 0.
	seg0 := filepath.Join(dir, names[0])
	data, err := os.ReadFile(seg0)
	if err != nil {
		t.Fatal(err)
	}
	mut := append([]byte(nil), data...)
	mut[len(mut)/2] ^= 0xff
	if err := os.WriteFile(seg0, mut, 0o644); err != nil {
		t.Fatal(err)
	}

	re := openDisk(t, dir, DiskConfig{})
	defer re.Close()
	after, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != 1 {
		t.Fatalf("later segments survived corruption: %v", after)
	}
	rec := re.Recovered()
	if rec != nil && rec.Head.Version >= 8 {
		t.Fatalf("recovered past the corruption: %+v", rec.Head)
	}
}

func TestDiskSegmentRotationReadsSpanSegments(t *testing.T) {
	dir := t.TempDir()
	d := openDisk(t, dir, DiskConfig{SegmentBytes: 256})
	for v := uint64(1); v <= 10; v++ {
		writeVersion(t, d, v)
	}
	if d.Stats().Segments < 2 {
		t.Fatalf("no rotation after %d bytes", d.Stats().BytesAppended)
	}
	// Reads reach back into closed segments.
	for v := uint64(1); v <= 10; v++ {
		got, ok, err := d.NodeGet(h(fmt.Sprintf("n%d-0", v)))
		if err != nil || !ok || !bytes.Equal(got, []byte(fmt.Sprintf("enc %d 0", v))) {
			t.Fatalf("NodeGet v%d = %q, %v, %v", v, got, ok, err)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	// Recovery replays across all segments.
	re := openDisk(t, dir, DiskConfig{})
	defer re.Close()
	if rec := re.Recovered(); rec == nil || rec.Head.Version != 10 {
		t.Fatalf("multi-segment recovery head = %+v", rec)
	}
}

// TestDiskRotationIsDurabilityPoint: rotation fsyncs the closed segment,
// so a crash right after rotation keeps everything before it.
func TestDiskRotationIsDurabilityPoint(t *testing.T) {
	dir := t.TempDir()
	d := openDisk(t, dir, DiskConfig{SegmentBytes: 1})
	writeVersion(t, d, 1) // rotates (and fsyncs) at the root boundary
	if err := d.Crash(); err != nil {
		t.Fatal(err)
	}
	re := openDisk(t, dir, DiskConfig{})
	defer re.Close()
	if rec := re.Recovered(); rec == nil || rec.Head.Version != 1 {
		t.Fatalf("recovered head = %+v, want version 1 via rotation fsync", rec)
	}
}

// TestDiskUnflushedReadThrough: reads of records still sitting in the
// append buffer flush first and then pread — a reader never sees a torn
// or missing record for data the store acknowledged.
func TestDiskUnflushedReadThrough(t *testing.T) {
	d := openDisk(t, t.TempDir(), DiskConfig{})
	defer d.Close()
	if err := d.NodePut(h("fresh"), []byte("fresh-enc")); err != nil {
		t.Fatal(err)
	}
	got, ok, err := d.NodeGet(h("fresh"))
	if err != nil || !ok || string(got) != "fresh-enc" {
		t.Fatalf("read-through = %q, %v, %v", got, ok, err)
	}
}

// FuzzDiskRecover feeds arbitrary bytes to recovery as a segment file: Open
// never panics, and reopening the directory it repaired recovers the same
// head and retained roots.
func FuzzDiskRecover(f *testing.F) {
	dir := f.TempDir()
	d, err := Open(dir, DiskConfig{})
	if err != nil {
		f.Fatal(err)
	}
	for v := uint64(1); v <= 3; v++ {
		val := fmt.Sprintf("val%d", v%2) // version 3 re-puts version 1's value
		for _, err := range []error{
			d.NodePut(h(fmt.Sprintf("n%d", v)), []byte("enc")),
			d.ValuePut(h(val), []byte(val)),
			d.CommitRoot(RootRecord{Version: v, Root: h(fmt.Sprintf("root%d", v)), Height: v}),
		} {
			if err != nil {
				f.Fatal(err)
			}
		}
	}
	if err := d.ReleaseVersion(2); err != nil {
		f.Fatal(err)
	}
	if err := d.Close(); err != nil {
		f.Fatal(err)
	}
	seg, err := os.ReadFile(filepath.Join(dir, segName(0)))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seg)
	f.Add(seg[:len(seg)-5])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segName(0)), data, 0o644); err != nil {
			t.Fatal(err)
		}
		d := openDisk(t, dir, DiskConfig{})
		first := d.Recovered()
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
		re := openDisk(t, dir, DiskConfig{})
		defer re.Close()
		if again := re.Recovered(); !reflect.DeepEqual(again, first) {
			t.Fatalf("reopen recovered %+v, first open %+v", again, first)
		}
	})
}
