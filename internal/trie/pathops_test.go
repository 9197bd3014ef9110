package trie

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"reflect"
	"testing"
	"unsafe"
)

// bitsOf returns p one byte per bit (values 0 or 1): the bit-per-byte
// form paths had before they were packed, kept as the model the packed
// operations are checked against.
func bitsOf(p path) []byte {
	out := make([]byte, p.n)
	for i := range out {
		out[i] = p.b[i/8] >> (7 - uint(i%8)) & 1
	}
	return out
}

// bitsPath builds the path holding the given bits, one per byte, bit by
// bit and independently of the packed operations.
func bitsPath(bits ...byte) path {
	p := path{n: uint16(len(bits))}
	for i, b := range bits {
		p.b[i/8] |= (b & 1) << (7 - uint(i%8))
	}
	return p
}

// modelMatch is the common prefix length of two bit-per-byte paths.
func modelMatch(a, b []byte) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// FuzzPathOps checks the packed path operations — bit access, slice,
// match length, concat and the packed round trip — against the
// bit-per-byte model. The input's first eight bytes pick two lengths, a
// slice, a match position and the offset at which the second path's bits
// start in the shared bit stream the rest of the input spells, so the
// two paths often share long runs.
func FuzzPathOps(f *testing.F) {
	f.Add([]byte{0, 9, 0, 3, 2, 5, 1, 6, 0xb2, 0x80})
	f.Add([]byte{1, 0, 1, 0, 0, 255, 0, 0, 0xde, 0xad, 0xbe, 0xef})
	f.Add([]byte{0, 200, 0, 56, 13, 77, 144, 144, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17})
	f.Add(append([]byte{0, 255, 0, 1, 254, 1, 255, 7}, bytes.Repeat([]byte{0xff}, 40)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 8 {
			return
		}
		stream := make([]byte, 3*keyBits)
		for i := range stream {
			if j := 8 + i/8; j < len(data) {
				stream[i] = data[j] >> (7 - uint(i%8)) & 1
			}
		}
		la := int(binary.BigEndian.Uint16(data[0:])) % (keyBits + 1)
		lb := int(binary.BigEndian.Uint16(data[2:])) % (keyBits + 1)
		off := int(data[7])
		ma, mb := stream[:la], stream[off:off+lb]
		a, b := bitsPath(ma...), bitsPath(mb...)

		if got := bitsOf(a); !bytes.Equal(got, ma) {
			t.Fatalf("bitsOf(bitsPath(%v)) = %v", ma, got)
		}
		for i, want := range ma {
			if got := a.bit(i); got != want {
				t.Fatalf("bit %d of %v = %d", i, ma, got)
			}
		}
		if back, ok := pathOf(a.packed(), la); !ok || back != a {
			t.Fatalf("packed round trip of %v: %v, %v", ma, bitsOf(back), ok)
		}

		from := int(data[4]) % (la + 1)
		to := from + int(data[5])%(la-from+1)
		if got, want := a.slice(from, to), bitsPath(ma[from:to]...); got != want {
			t.Fatalf("slice(%d, %d) of %v = %v, want %v", from, to, ma, bitsOf(got), ma[from:to])
		}

		pos := int(data[6]) % (lb + 1)
		if got, want := a.matchLen(&b, pos), modelMatch(ma, mb[pos:]); got != want {
			t.Fatalf("matchLen(%v, %v from %d) = %d, want %d", ma, mb, pos, got, want)
		}

		tail := b.slice(0, min(lb, keyBits-la))
		mt := mb[:tail.len()]
		want := bitsPath(append(append([]byte(nil), ma...), mt...)...)
		if got := a.concat(tail); got != want {
			t.Fatalf("concat(%v, %v) = %v", ma, mt, bitsOf(got))
		}
	})
}

// TestNodeFootprintAndAllocs gates the cell's size and layout, deferred
// hashing, and the allocations of the hot operations on a 4 000-key trie:
// a cell is the paper's 72-byte slot plus a generation and a reference
// count and holds no pointer the collector would scan; 1 000 writes to one
// key cost one settle of its path; a fresh sequential Set takes its cells
// from the arena, Get reads the key in place, Prove writes one exact-size
// buffer (and the Proof that holds it), and the verifiers read the encoded
// bytes in place.
func TestNodeFootprintAndAllocs(t *testing.T) {
	if s := unsafe.Sizeof(cell{}); s > 80 {
		t.Fatalf("cell is %d bytes, want <= 80", s)
	}
	if hasPointers(reflect.TypeOf(cell{})) {
		t.Fatal("cell holds a pointer")
	}
	tr := New()
	v := val("footprint")
	const n = 4000
	for i := uint64(0); i < n; i++ {
		must(t, tr.Set(seqKey(0, i), v))
	}
	next := uint64(n)
	k := seqKey(0, 1234)

	proof, err := tr.Prove(k)
	if err != nil {
		t.Fatal(err)
	}
	absent, err := tr.Prove(seqKey(1, 0))
	if err != nil || absent.Membership() {
		t.Fatalf("want an absence proof: %v", err)
	}
	enc, absentEnc := Proof(marshal(t, proof)), Proof(marshal(t, absent))
	root := tr.Root()

	for _, c := range []struct {
		name string
		max  float64
		f    func()
	}{
		{"Set of a fresh sequential key", 2, func() { must(t, tr.Set(seqKey(0, next), v)); next++ }},
		{"Get", 0, func() { _, err = tr.Get(k) }},
		{"Prove", 2, func() { _, err = tr.Prove(k) }},
		{"VerifyMembership", 0, func() { err = VerifyMembership(root, k, v, &enc) }},
		{"VerifyNonMembership", 0, func() { err = VerifyNonMembership(root, seqKey(1, 0), &absentEnc) }},
	} {
		got := testing.AllocsPerRun(200, c.f)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got > c.max {
			t.Errorf("%s: %v allocations, want <= %v", c.name, got, c.max)
		}
	}
	if _, err := tr.Get(seqKey(0, next-1)); err != nil {
		t.Fatalf("the last fresh key: %v", err)
	}
	tr.Root()
	hashed := tr.hashes
	for i := 0; i < 1000; i++ {
		must(t, tr.Set(k, val(fmt.Sprint(i))))
	}
	tr.Root()
	if got, want := tr.hashes-hashed, depthOf(tr, k)+1; got != want {
		t.Fatalf("Root after 1 000 Sets of one key hashed %d nodes, want its depth + 1 = %d", got, want)
	}
}

// hasPointers reports whether a value of type ty holds anything the
// garbage collector must scan.
func hasPointers(ty reflect.Type) bool {
	switch ty.Kind() {
	case reflect.Array:
		return ty.Len() > 0 && hasPointers(ty.Elem())
	case reflect.Struct:
		for i := 0; i < ty.NumField(); i++ {
			if hasPointers(ty.Field(i).Type) {
				return true
			}
		}
		return false
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return false
	default:
		return true
	}
}

// depthOf returns the number of inner cells above key's leaf in the head.
func depthOf(tr *Trie, key [KeySize]byte) int {
	kp := keyToPath(key)
	depth, pos := 0, 0
	for s := tr.root; ; depth++ {
		c := tr.cell(&s)
		switch c.kind() {
		case kindBranch:
			s = c.kids[kp.bit(pos)]
			pos++
		case kindExt:
			p := c.path()
			pos += p.len()
			s = c.kids[0]
		default:
			return depth
		}
	}
}
