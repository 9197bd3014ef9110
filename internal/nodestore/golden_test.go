package nodestore

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"
)

// TestRecordGolden pins the digest and length of each WAL record payload
// and of the whole segment: the log is what recovery replays, so its bytes
// may not move under a refactor.
func TestRecordGolden(t *testing.T) {
	dir := t.TempDir()
	d := openDisk(t, dir, DiskConfig{})
	for _, err := range []error{
		d.NodePut(h("node"), []byte("encoded node bytes")),
		d.ValuePut(h("value"), []byte("value")),
		d.CommitRoot(RootRecord{
			Version: 8, Root: h("root"), Sealed: true, Height: 41,
			Nodes: 123, Leaves: 45, SealedRefs: 6, TotalAllocs: 789, TotalFrees: 666,
		}),
		d.ReleaseVersion(7),
		d.Close(),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	seg, err := os.ReadFile(filepath.Join(dir, segName(0)))
	if err != nil {
		t.Fatal(err)
	}
	digest := func(b []byte) string {
		sum := sha256.Sum256(b)
		return hex.EncodeToString(sum[:])
	}
	type pin struct {
		name   string
		digest string
		len    int
	}
	var got []pin
	names := []string{"node", "value", "root", "release"}
	for rest := seg; len(rest) > 0; {
		if len(rest) < 8 || len(got) == len(names) {
			t.Fatalf("segment does not frame into %d records", len(names))
		}
		n := int(binary.BigEndian.Uint32(rest))
		payload := rest[8 : 8+n] // after the u32 length and u32 CRC
		got = append(got, pin{names[len(got)], digest(payload), n})
		rest = rest[8+n:]
	}
	got = append(got, pin{"segment", digest(seg), len(seg)})
	want := []pin{
		{"node", "c5eca2a2841f37ce5b8dc1ced5058b913e047674bd755843b761ef04ab248047", 51},
		{"value", "d4ef5b94ec4eb6b783412addd9f3673c3ab6253c71c7721a619a74cae4363153", 38},
		{"root", "da68b5a04faebc4677076a2984767e4f56b29080a8eb59c72afbd708f9785d5c", 90},
		{"release", "ff7ea9afa16aff0fe857c4d8b24c7325211241217b12fee4e5214d85a785d21c", 9},
		{"segment", "8e24a7ae1c03ebddff0d2d7bd76ef787df31b5197d8f31d2e851371074a9dfe5", 220},
	}
	if len(got) != len(want) {
		t.Fatalf("segment holds %d records, want %d", len(got)-1, len(want)-1)
	}
	for i, w := range want {
		if got[i] != w {
			t.Errorf("%s = %s (%d bytes), want %s (%d bytes)", w.name, got[i].digest, got[i].len, w.digest, w.len)
		}
	}
}
