// Package wire provides compact deterministic binary encoding helpers.
// Header and update sizes matter in this reproduction — they determine how
// many 1232-byte host transactions a light-client update needs (§V-A), so
// protocol messages use this explicit encoding rather than JSON.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"repro/internal/cryptoutil"
)

// ErrShort is returned when a reader runs out of bytes.
var ErrShort = errors.New("wire: short buffer")

// Writer accumulates a binary message.
type Writer struct {
	buf []byte
}

// NewWriter returns an empty writer.
func NewWriter() *Writer { return &Writer{} }

// NewWriterSize returns an empty writer with capacity for an n-byte
// message. Hot-path encoders that know their encoded size fill a single
// allocation instead of growing through append doublings.
func NewWriterSize(n int) *Writer { return &Writer{buf: make([]byte, 0, n)} }

// Bytes returns the accumulated buffer.
func (w *Writer) Bytes() []byte { return w.buf }

// Len returns the current encoded length.
func (w *Writer) Len() int { return len(w.buf) }

// U8 appends one byte.
func (w *Writer) U8(v uint8) { w.buf = append(w.buf, v) }

// U16 appends a big-endian uint16.
func (w *Writer) U16(v uint16) {
	w.buf = binary.BigEndian.AppendUint16(w.buf, v)
}

// U32 appends a big-endian uint32.
func (w *Writer) U32(v uint32) {
	w.buf = binary.BigEndian.AppendUint32(w.buf, v)
}

// U64 appends a big-endian uint64.
func (w *Writer) U64(v uint64) {
	w.buf = binary.BigEndian.AppendUint64(w.buf, v)
}

// Hash appends a 32-byte hash.
func (w *Writer) Hash(h cryptoutil.Hash) { w.buf = append(w.buf, h[:]...) }

// PubKey appends a 32-byte public key.
func (w *Writer) PubKey(p cryptoutil.PubKey) { w.buf = append(w.buf, p[:]...) }

// Signature appends a 64-byte signature.
func (w *Writer) Signature(s cryptoutil.Signature) { w.buf = append(w.buf, s[:]...) }

// Time appends a timestamp as Unix nanoseconds.
func (w *Writer) Time(t time.Time) { w.U64(TimeNanos(t)) }

// TimeNanos is the value Time encodes: Unix nanoseconds, 0 for the zero
// time. Fixed-layout digests put it into a stack array themselves.
func TimeNanos(t time.Time) uint64 {
	if t.IsZero() {
		return 0
	}
	return uint64(t.UnixNano())
}

// Bytes16 appends a byte string with a 2-byte length prefix.
func (w *Writer) Bytes16(b []byte) {
	w.U16(uint16(len(b)))
	w.buf = append(w.buf, b...)
}

// Bytes32 appends a byte string with a 4-byte length prefix.
func (w *Writer) Bytes32(b []byte) {
	w.U32(uint32(len(b)))
	w.buf = append(w.buf, b...)
}

// String16 appends a string with a 2-byte length prefix.
func (w *Writer) String16(s string) {
	w.U16(uint16(len(s)))
	w.buf = append(w.buf, s...)
}

// Raw appends b with no length prefix: the reader knows its length from
// what precedes it, as a packed path's from its bit count, or from where
// the message ends.
func (w *Writer) Raw(b []byte) { w.buf = append(w.buf, b...) }

// Reader decodes a binary message; the first error sticks.
type Reader struct {
	buf []byte
	pos int
	err error
}

// NewReader wraps buf.
func NewReader(buf []byte) *Reader { return &Reader{buf: buf} }

// Err returns the sticky error, if any.
func (r *Reader) Err() error { return r.err }

// Remaining returns the number of unread bytes.
func (r *Reader) Remaining() int { return len(r.buf) - r.pos }

// Count16 reads a u16 count of entries that take at least entrySize
// bytes each. A count the unread input cannot hold reads as 0 and sets
// ErrShort, so a decoder sizes its slice only from what the input holds
// and never allocates for entries that are not there.
func (r *Reader) Count16(entrySize int) int {
	n := int(r.U16()) // 0 once the reader has failed
	if n > r.Remaining()/entrySize {
		r.err = ErrShort
		return 0
	}
	return n
}

// Done returns an error unless the buffer was fully and cleanly consumed.
func (r *Reader) Done() error {
	if r.err != nil {
		return r.err
	}
	if r.pos != len(r.buf) {
		return fmt.Errorf("wire: %d trailing bytes", len(r.buf)-r.pos)
	}
	return nil
}

func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if r.pos+n > len(r.buf) {
		r.err = ErrShort
		return nil
	}
	b := r.buf[r.pos : r.pos+n]
	r.pos += n
	return b
}

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// U16 reads a big-endian uint16.
func (r *Reader) U16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint16(b)
}

// U32 reads a big-endian uint32.
func (r *Reader) U32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

// U64 reads a big-endian uint64.
func (r *Reader) U64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

// Hash reads a 32-byte hash.
func (r *Reader) Hash() cryptoutil.Hash {
	var h cryptoutil.Hash
	if b := r.take(cryptoutil.HashSize); b != nil {
		copy(h[:], b)
	}
	return h
}

// PubKey reads a 32-byte public key.
func (r *Reader) PubKey() cryptoutil.PubKey {
	var p cryptoutil.PubKey
	if b := r.take(len(p)); b != nil {
		copy(p[:], b)
	}
	return p
}

// Signature reads a 64-byte signature.
func (r *Reader) Signature() cryptoutil.Signature {
	var s cryptoutil.Signature
	if b := r.take(len(s)); b != nil {
		copy(s[:], b)
	}
	return s
}

// Time reads a Unix-nanosecond timestamp.
func (r *Reader) Time() time.Time {
	v := r.U64()
	if v == 0 {
		return time.Time{}
	}
	return time.Unix(0, int64(v)).UTC()
}

// Raw reads the n bytes Writer.Raw wrote. The slice aliases the input:
// copy it to keep it longer than the input.
func (r *Reader) Raw(n int) []byte { return r.take(n) }

// Bytes16 reads a 2-byte-length-prefixed byte string.
func (r *Reader) Bytes16() []byte {
	n := int(r.U16())
	b := r.take(n)
	if b == nil {
		return nil
	}
	return append([]byte(nil), b...)
}

// Bytes32 reads a 4-byte-length-prefixed byte string.
func (r *Reader) Bytes32() []byte {
	n := int(r.U32())
	b := r.take(n)
	if b == nil {
		return nil
	}
	return append([]byte(nil), b...)
}

// String16 reads a 2-byte-length-prefixed string. Unlike Bytes16 it
// converts straight from the underlying buffer — one allocation for the
// string, not an intermediate byte-slice copy as well.
func (r *Reader) String16() string {
	n := int(r.U16())
	b := r.take(n)
	if b == nil {
		return ""
	}
	return string(b)
}
