package tendermint

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"runtime/metrics"
	"testing"
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/wire"
)

// allocatedPerCall reports the heap bytes one call of f allocates: the
// least of three averages over runs calls each, since the runtime counts
// small allocations a span at a time and a fuzz worker allocates beside
// the call being measured.
func allocatedPerCall(runs int, f func()) uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	least := uint64(math.MaxUint64)
	for window := 0; window < 3; window++ {
		metrics.Read(s)
		before := s[0].Value.Uint64()
		for i := 0; i < runs; i++ {
			f()
		}
		metrics.Read(s)
		least = min(least, (s[0].Value.Uint64()-before)/uint64(runs))
	}
	return least
}

// TestEncodedSizes: every size helper is the length of the encoding the
// writer builds, and Marshal fills exactly that much.
func TestEncodedSizes(t *testing.T) {
	c := newTestChain(t, 24)
	h := c.header(cryptoutil.HashBytes([]byte("size")))
	for _, u := range []*Update{c.update(h, 0), c.update(h, 17), c.update(h, 24)} {
		for _, x := range []struct {
			name   string
			size   int
			encode func(*wire.Writer)
		}{
			{"ValidatorSet", u.ValSet.encodedSize(), u.ValSet.Encode},
			{"Header", u.Header.encodedSize(), u.Header.Encode},
		} {
			w := wire.NewWriter()
			x.encode(w)
			if w.Len() != x.size {
				t.Errorf("%s: size helper says %d, encoding is %d bytes", x.name, x.size, w.Len())
			}
		}
		if b := u.Marshal(); len(b) != u.encodedSize() || cap(b) != len(b) {
			t.Errorf("Update with %d signatures: size helper says %d, Marshal wrote %d into %d", len(u.Commit), u.encodedSize(), len(b), cap(b))
		}
	}
}

// hostileCounts are encodings whose u16 entry count promises 65 535
// entries the input does not hold: the validator set's, and the commit's
// (behind an empty set and the header).
func hostileCounts(h *Header) [][]byte {
	w := wire.NewWriter()
	h.Encode(w)
	hdr := w.Bytes()
	return [][]byte{
		append([]byte{0xff, 0xff}, hdr...),
		append(append([]byte{0, 0}, hdr...), 0xff, 0xff),
	}
}

// TestDecodeHostileCount: a count the input cannot hold fails with
// wire.ErrShort before anything is allocated for it — two bytes used to
// cost 2.6 MB and 65 535 loop turns.
func TestDecodeHostileCount(t *testing.T) {
	var err error
	if n := allocatedPerCall(100, func() { _, err = DecodeValidatorSet(wire.NewReader([]byte{0xff, 0xff})) }); n >= 1024 {
		t.Errorf("DecodeValidatorSet(ff ff) allocated %d bytes", n)
	}
	if !errors.Is(err, wire.ErrShort) {
		t.Errorf("DecodeValidatorSet(ff ff) = %v, want wire.ErrShort", err)
	}
	c := newTestChain(t, 4)
	for i, data := range hostileCounts(c.header(cryptoutil.ZeroHash)) {
		if n := allocatedPerCall(100, func() { _, err = UnmarshalUpdate(data) }); n >= 1024 {
			t.Errorf("hostile update %d allocated %d bytes", i, n)
		}
		if !errors.Is(err, wire.ErrShort) {
			t.Errorf("hostile update %d = %v, want wire.ErrShort", i, err)
		}
	}
}

// withIndices returns u's encoding with the set indices of its first
// commit entries replaced by indices.
func withIndices(u *Update, indices ...uint16) []byte {
	b := u.Marshal()
	at := u.Header.encodedSize() + u.ValSet.encodedSize() + 2
	for i, x := range indices {
		binary.BigEndian.PutUint16(b[at+i*CommitEntrySize:], x)
	}
	return b
}

// badIndices are encodings of u whose commit names its signers out of
// the rule: an index past the set, a repeated one, a descending pair, and
// 0xffff.
func badIndices(u *Update) [][]byte {
	n := uint16(len(u.ValSet.Validators))
	return [][]byte{withIndices(u, n), withIndices(u, 0, 0), withIndices(u, 5, 3), withIndices(u, 0xffff)}
}

// TestDecodeRefusesBadIndex: the decoder resolves each commit entry
// against the set ahead of it, and refuses an index that is not a member
// above the previous entry's with ErrCommitIndex, a set cut short with
// wire.ErrShort and a set out of order with ErrSetOrder.
func TestDecodeRefusesBadIndex(t *testing.T) {
	c := newTestChain(t, 24)
	u := c.update(c.header(cryptoutil.ZeroHash), 17)
	for i, data := range badIndices(u) {
		if _, err := UnmarshalUpdate(data); !errors.Is(err, ErrCommitIndex) {
			t.Errorf("bad index %d: err = %v, want ErrCommitIndex", i, err)
		}
	}
	if _, err := UnmarshalUpdate(u.Marshal()[:2+10*validatorSize]); !errors.Is(err, wire.ErrShort) {
		t.Errorf("set cut short: err = %v, want wire.ErrShort", err)
	}
	swapped := u.Marshal()
	first := swapped[2 : 2+validatorSize]
	second := swapped[2+validatorSize : 2+2*validatorSize]
	tmp := append([]byte(nil), first...)
	copy(first, second)
	copy(second, tmp)
	if _, err := UnmarshalUpdate(swapped); !errors.Is(err, ErrSetOrder) {
		t.Errorf("set out of order: err = %v, want ErrSetOrder", err)
	}
}

// FuzzUpdateDecode feeds arbitrary bytes to the light-client update
// decoder (what a relayer hands the guest contract and a counterparty
// front-end): it never panics, allocates within a fixed multiple of the
// input, and an accepted update is canonical — it re-marshals to the same
// bytes.
func FuzzUpdateDecode(f *testing.F) {
	c := newNamedTestChain(f, "tm-fuzz", 24)
	h := c.header(cryptoutil.HashBytes([]byte("fuzz")))
	good := c.update(h, 17)
	good.Commit[3].Timestamp = time.Time{}
	f.Add([]byte{})
	f.Add(good.Marshal())
	for _, data := range hostileCounts(h) {
		f.Add(data)
	}
	for _, data := range badIndices(good) {
		f.Add(data)
	}
	f.Add(good.Marshal()[:2+10*validatorSize])
	f.Fuzz(func(t *testing.T, data []byte) {
		var u *Update
		var err error
		if n := allocatedPerCall(8, func() { u, err = UnmarshalUpdate(data) }); n > 4*uint64(len(data))+16<<10 {
			t.Fatalf("%d input bytes allocated %d", len(data), n)
		}
		if err != nil {
			return
		}
		if again := u.Marshal(); !bytes.Equal(again, data) {
			t.Fatalf("accepted %x, re-marshals to %x", data, again)
		}
	})
}
