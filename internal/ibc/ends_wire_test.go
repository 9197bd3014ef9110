package ibc

import (
	"bytes"
	"encoding/hex"
	"errors"
	"math"
	"runtime/metrics"
	"strings"
	"testing"
)

// TestEndEncodingGolden pins the bytes of a connection end and a channel
// end: a chain stores them and its counterparty proves them against ends it
// builds itself, so both sides must encode them identically.
func TestEndEncodingGolden(t *testing.T) {
	conn := &ConnectionEnd{State: StateInit, ClientID: "client-b", Counterparty: Counterparty{ClientID: "client-a"}}
	ch := &ChannelEnd{
		State:        StateOpen,
		Ordering:     Ordered,
		Counterparty: ChannelCounterparty{PortID: "transfer", ChannelID: "channel-1"},
		ConnectionID: "connection-0",
		Version:      "ics20-1",
	}
	for _, c := range []struct {
		name string
		got  []byte
		want string
	}{
		{"connection/init", marshalConnectionEnd(conn), "01" + "0008636c69656e742d62" + "0008636c69656e742d61" + "0000"},
		{"channel/open-ordered", marshalChannelEnd(ch), "0302" + "00087472616e73666572" + "00096368616e6e656c2d31" +
			"000c636f6e6e656374696f6e2d30" + "000769637332302d31"},
	} {
		if hex.EncodeToString(c.got) != c.want {
			t.Errorf("%s = %x, want %s", c.name, c.got, c.want)
		}
	}
	if got, err := unmarshalConnectionEnd(marshalConnectionEnd(conn)); err != nil || *got != *conn {
		t.Errorf("connection end decodes to %+v, %v", got, err)
	}
	if got, err := unmarshalChannelEnd(marshalChannelEnd(ch)); err != nil || *got != *ch {
		t.Errorf("channel end decodes to %+v, %v", got, err)
	}
}

// TestStoreEndRefusesWhatWouldNotReadBack: an end is stored only if it
// decodes to itself, so every later read of it succeeds unchanged.
func TestStoreEndRefusesWhatWouldNotReadBack(t *testing.T) {
	p := newPair(t)
	if _, err := p.a.handler.ChanOpenInit("transfer", p.connA, "transfer", 0, "v1"); !errors.Is(err, ErrInvalidOrdering) {
		t.Fatalf("channel with ordering 0 = %v, want ErrInvalidOrdering", err)
	}
	if _, err := p.a.handler.ConnOpenInit("client-b", ClientID(strings.Repeat("a", 1<<16+4))); err == nil {
		t.Fatal("stored a connection end whose counterparty client overflows its length prefix")
	}
	// A port id of 65 537 bytes: its prefix wraps to 1, and the rest of it
	// holds two length-prefixed strings, the second ending with the 16
	// encoded bytes of the real channel and connection ids, so the end
	// decodes — as another end.
	prefix := func(n int) string { return string([]byte{byte(n >> 8), byte(n)}) }
	port := "x" + prefix(1000) + strings.Repeat("a", 1000) + prefix(64548) + strings.Repeat("b", 64548-16)
	end := &ChannelEnd{
		State:        StateInit,
		Ordering:     Unordered,
		Counterparty: ChannelCounterparty{PortID: PortID(port)},
		ConnectionID: "connection-0",
		Version:      "v1",
	}
	if err := storeEnd(p.a.store, ChannelPath("transfer", "channel-9"), end, marshalChannelEnd, unmarshalChannelEnd); !errors.Is(err, errEndTooLong) {
		t.Fatalf("channel end with a %d-byte port = %v, want errEndTooLong", len(end.Counterparty.PortID), err)
	}
	if has, _ := p.a.store.Has(ChannelPath("transfer", "channel-9")); has {
		t.Fatal("the refused end was stored")
	}
}

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

// FuzzEndDecode feeds arbitrary bytes to both end decoders (what a store
// read hands the handler): they never panic, allocate within a fixed
// multiple of the input, and an accepted end is canonical — it re-encodes
// to the same bytes. The seeds are the ends a real handshake stored, each
// with a trailing byte, with state 5 and with ordering 0.
func FuzzEndDecode(f *testing.F) {
	p := newPair(f, Ordered)
	conn, err := p.a.store.Get(ConnectionPath(p.connA))
	must(f, err)
	ch, err := p.a.store.Get(ChannelPath("transfer", p.chanA))
	must(f, err)
	f.Add([]byte{})
	for _, end := range [][]byte{conn, ch} {
		f.Add(end)
		f.Add(append(append([]byte(nil), end...), 0))
		f.Add(append([]byte{5}, end[1:]...))
	}
	noOrdering := append([]byte{byte(StateOpen), 0}, ch[2:]...)
	f.Add(noOrdering)
	if _, err := unmarshalChannelEnd(noOrdering); !errors.Is(err, ErrInvalidOrdering) {
		f.Fatalf("ordering 0 = %v, want ErrInvalidOrdering", err)
	}
	if _, err := unmarshalConnectionEnd(append([]byte{5}, conn[1:]...)); !errors.Is(err, ErrInvalidState) {
		f.Fatalf("state 5 = %v, want ErrInvalidState", err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		limit := 4*uint64(len(data)) + 16<<10
		var c *ConnectionEnd
		var cerr error
		if n := allocatedPerCall(8, func() { c, cerr = unmarshalConnectionEnd(data) }); n > limit {
			t.Fatalf("%d input bytes allocated %d decoding a connection end", len(data), n)
		}
		if cerr == nil && !bytes.Equal(marshalConnectionEnd(c), data) {
			t.Fatalf("accepted connection end %x re-encodes to %x", data, marshalConnectionEnd(c))
		}
		var e *ChannelEnd
		var eerr error
		if n := allocatedPerCall(8, func() { e, eerr = unmarshalChannelEnd(data) }); n > limit {
			t.Fatalf("%d input bytes allocated %d decoding a channel end", len(data), n)
		}
		if eerr == nil && !bytes.Equal(marshalChannelEnd(e), data) {
			t.Fatalf("accepted channel end %x re-encodes to %x", data, marshalChannelEnd(e))
		}
	})
}
