package guestblock

import (
	"bytes"
	"errors"
	"math"
	"runtime/metrics"
	"testing"

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

// signedBlock is a quorum-signed test block carrying the next epoch.
func signedBlock(t testing.TB) *SignedBlock {
	e, keys := testEpoch(t, 24)
	b := testBlock(e)
	b.NextEpoch = e
	sb := &SignedBlock{Block: b}
	for _, k := range keys[:17] {
		sb.Signatures = append(sb.Signatures, BlockSignature{
			PubKey: k.Public(), Signature: k.SignHash(b.SigningPayload()),
		})
	}
	return sb
}

// TestEncodedSizes: every size helper is the length of the encoding the
// writer builds, and Marshal fills exactly that much.
func TestEncodedSizes(t *testing.T) {
	sb := signedBlock(t)
	plain := &SignedBlock{Block: testBlock(sb.Block.NextEpoch)}
	for _, x := range []struct {
		name   string
		size   int
		encode func(*wire.Writer)
	}{
		{"Epoch", sb.Block.NextEpoch.encodedSize(), sb.Block.NextEpoch.Encode},
		{"Block", plain.Block.encodedSize(), plain.Block.Encode},
		{"Block/next-epoch", sb.Block.encodedSize(), sb.Block.Encode},
		{"SignedBlock", plain.encodedSize(), plain.Encode},
		{"SignedBlock/next-epoch", sb.encodedSize(), sb.Encode},
	} {
		w := wire.NewWriter()
		x.encode(w)
		if w.Len() != x.size {
			t.Errorf("%s: size helper says %d, encoding is %d bytes", x.name, x.size, w.Len())
		}
	}
	if b := sb.Marshal(); cap(b) != len(b) {
		t.Errorf("Marshal wrote %d bytes into %d", len(b), cap(b))
	}
}

// hostileCounts are encodings whose u16 entry count promises 65 535
// entries the input does not hold: the next epoch's validators, and the
// signatures.
func hostileCounts(b *Block) [][]byte {
	plain := *b
	plain.NextEpoch = nil
	w := wire.NewWriter()
	plain.Encode(w)
	noEpoch := w.Bytes()
	withEpoch := append([]byte(nil), noEpoch...)
	withEpoch[len(withEpoch)-1] = 1 // next-epoch flag
	withEpoch = append(withEpoch, make([]byte, 16)...)
	return [][]byte{
		append(withEpoch, 0xff, 0xff),
		append(append([]byte(nil), noEpoch...), 0xff, 0xff),
	}
}

// TestDecodeHostileCount: a count the input cannot hold fails with
// wire.ErrShort before anything is allocated for it — two bytes after an
// epoch's index and quorum used to cost 2.6 MB and 65 535 loop turns.
func TestDecodeHostileCount(t *testing.T) {
	var err error
	epoch := append(make([]byte, 16), 0xff, 0xff)
	if n := allocatedPerCall(100, func() { _, err = DecodeEpoch(wire.NewReader(epoch)) }); n >= 1024 {
		t.Errorf("DecodeEpoch(… ff ff) allocated %d bytes", n)
	}
	if !errors.Is(err, wire.ErrShort) {
		t.Errorf("DecodeEpoch(… ff ff) = %v, want wire.ErrShort", err)
	}
	e, _ := testEpoch(t, 4)
	for i, data := range hostileCounts(testBlock(e)) {
		if n := allocatedPerCall(100, func() { _, err = UnmarshalSignedBlock(data) }); n >= 1024 {
			t.Errorf("hostile signed block %d allocated %d bytes", i, n)
		}
		if !errors.Is(err, wire.ErrShort) {
			t.Errorf("hostile signed block %d = %v, want wire.ErrShort", i, err)
		}
	}
}

// FuzzSignedBlockDecode feeds arbitrary bytes to the guest light client's
// update decoder (what a relayer hands a counterparty front-end): it never
// panics, allocates within a fixed multiple of the input, and an accepted
// signed block is canonical — it re-marshals to the same bytes.
func FuzzSignedBlockDecode(f *testing.F) {
	sb := signedBlock(f)
	f.Add([]byte{})
	f.Add(sb.Marshal())
	for _, data := range hostileCounts(sb.Block) {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var sb *SignedBlock
		var err error
		if n := allocatedPerCall(8, func() { sb, err = UnmarshalSignedBlock(data) }); n > 4*uint64(len(data))+16<<10 {
			t.Fatalf("%d input bytes allocated %d", len(data), n)
		}
		if err != nil {
			return
		}
		if again := sb.Marshal(); !bytes.Equal(again, data) {
			t.Fatalf("accepted %x, re-marshals to %x", data, again)
		}
	})
}
