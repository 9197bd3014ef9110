package wire

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/cryptoutil"
)

func TestRoundTripAllTypes(t *testing.T) {
	key := cryptoutil.GenerateKey("wire-test")
	sig := key.Sign([]byte("msg"))
	h := cryptoutil.HashBytes([]byte("h"))
	ts := time.Unix(1_700_000_123, 456).UTC()

	w := NewWriter()
	w.U8(7)
	w.U16(65535)
	w.U32(1 << 30)
	w.U64(1 << 60)
	w.Hash(h)
	w.PubKey(key.Public())
	w.Signature(sig)
	w.Time(ts)
	w.Time(time.Time{})
	w.Bytes16([]byte("short"))
	w.Bytes32(bytes.Repeat([]byte{0xAB}, 70_000))
	w.String16("hello")
	w.Raw([]byte("raw"))

	r := NewReader(w.Bytes())
	if got := r.U8(); got != 7 {
		t.Fatalf("U8 = %d", got)
	}
	if got := r.U16(); got != 65535 {
		t.Fatalf("U16 = %d", got)
	}
	if got := r.U32(); got != 1<<30 {
		t.Fatalf("U32 = %d", got)
	}
	if got := r.U64(); got != 1<<60 {
		t.Fatalf("U64 = %d", got)
	}
	if got := r.Hash(); got != h {
		t.Fatal("hash mismatch")
	}
	if got := r.PubKey(); got != key.Public() {
		t.Fatal("pubkey mismatch")
	}
	if got := r.Signature(); got != sig {
		t.Fatal("signature mismatch")
	}
	if got := r.Time(); !got.Equal(ts) {
		t.Fatalf("time = %v", got)
	}
	if got := r.Time(); !got.IsZero() {
		t.Fatalf("zero time = %v", got)
	}
	if got := r.Bytes16(); string(got) != "short" {
		t.Fatalf("bytes16 = %q", got)
	}
	if got := r.Bytes32(); len(got) != 70_000 || got[0] != 0xAB {
		t.Fatalf("bytes32 len = %d", len(got))
	}
	if got := r.String16(); got != "hello" {
		t.Fatalf("string16 = %q", got)
	}
	if got := r.Raw(3); string(got) != "raw" {
		t.Fatalf("raw = %q", got)
	}
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
}

func TestShortBufferSticks(t *testing.T) {
	r := NewReader([]byte{1, 2})
	_ = r.U64() // underflow
	if r.Err() == nil {
		t.Fatal("no error on underflow")
	}
	// Every subsequent read returns zero values without panicking.
	if got := r.U16(); got != 0 {
		t.Fatalf("post-error U16 = %d", got)
	}
	if got := r.Bytes16(); got != nil {
		t.Fatalf("post-error Bytes16 = %v", got)
	}
	if r.Done() == nil {
		t.Fatal("Done cleared the error")
	}
}

func TestCount16OnlyWhatTheInputHolds(t *testing.T) {
	// Three 4-byte entries follow the count: 3 fits, 4 does not.
	for count, want := range map[uint16]int{3: 3, 4: 0, 0xffff: 0} {
		w := NewWriter()
		w.U16(count)
		w.U32(1)
		w.U32(2)
		w.U32(3)
		r := NewReader(w.Bytes())
		if got := r.Count16(4); got != want || (want == 0) != errors.Is(r.Err(), ErrShort) {
			t.Fatalf("count %d: Count16 = %d (%v), want %d", count, got, r.Err(), want)
		}
	}
}

func TestTrailingBytesDetected(t *testing.T) {
	w := NewWriter()
	w.U8(1)
	w.U8(2)
	r := NewReader(w.Bytes())
	_ = r.U8()
	if err := r.Done(); err == nil {
		t.Fatal("trailing byte not detected")
	}
}

func TestQuickBytes16RoundTrip(t *testing.T) {
	f := func(data []byte) bool {
		if len(data) > 65535 {
			data = data[:65535]
		}
		w := NewWriter()
		w.Bytes16(data)
		r := NewReader(w.Bytes())
		got := r.Bytes16()
		if r.Done() != nil {
			return false
		}
		return bytes.Equal(got, data) || (len(data) == 0 && len(got) == 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickU64RoundTrip(t *testing.T) {
	f := func(v uint64) bool {
		w := NewWriter()
		w.U64(v)
		r := NewReader(w.Bytes())
		return r.U64() == v && r.Done() == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
