package ibc

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/cryptoutil"
)

// pathToKeySplit is the key derivation as it was before the in-place parser
// and the scope memo — strings.Split, a port+"/"+channel concatenation, one
// hash per call — with the one rule this change adds: a number that is not
// canonical decimal does not make a sequenced path. Kept as the reference
// PathToKey is held to.
func pathToKeySplit(path string) [cryptoutil.HashSize]byte {
	flat := func() [cryptoutil.HashSize]byte {
		h := cryptoutil.HashTagged(keyTagHashed, []byte(path))
		h[0] = keyTagHashed
		return [cryptoutil.HashSize]byte(h)
	}
	parts := strings.Split(path, "/")
	if len(parts) != 7 || parts[1] != "ports" || parts[3] != "channels" || parts[5] != "sequences" {
		return flat()
	}
	tag, ok := map[string]byte{"commitments": keyTagCommitment, "receipts": keyTagReceipt, "acks": keyTagAck}[parts[0]]
	if !ok {
		return flat()
	}
	seq, err := strconv.ParseUint(parts[6], 10, 64)
	if err != nil || strconv.FormatUint(seq, 10) != parts[6] {
		return flat()
	}
	var key [cryptoutil.HashSize]byte
	key[0] = tag
	scope := cryptoutil.HashTagged(tag, []byte(parts[2]+"/"+parts[4]))
	copy(key[1:24], scope[:23])
	for i := 0; i < 8; i++ {
		key[cryptoutil.HashSize-1-i] = byte(seq >> (8 * i))
	}
	return key
}

var sequencedBuilders = []struct {
	ns    string
	build func(PortID, ChannelID, uint64) string
}{
	{"commitments", CommitmentPath},
	{"receipts", ReceiptPath},
	{"acks", AckPath},
}

// TestPathToKeyNonCanonicalSequenceHashesFlat: "…/sequences/007" is a
// different path from "…/sequences/7" — the value table keeps them as two
// entries — so it must not share 7's structured key. Anything but the
// canonical decimal spelling hashes flat.
func TestPathToKeyNonCanonicalSequenceHashesFlat(t *testing.T) {
	const prefix = "receipts/ports/transfer/channels/channel-0/sequences/"
	canonical := PathToKey(prefix + "7")
	if canonical[0] != keyTagReceipt || canonical != PathToKey(ReceiptPath("transfer", "channel-0", 7)) {
		t.Fatalf("canonical path left the structured branch: %x", canonical)
	}
	for _, digits := range []string{"007", "07", "00", "+7", "-7", "", "7 ", "0x7", "7_0", "18446744073709551616"} {
		key := PathToKey(prefix + digits)
		if key == canonical {
			t.Errorf("sequences/%q shares the key of sequences/7", digits)
		}
		if key[0] != keyTagHashed {
			t.Errorf("sequences/%q took the structured branch (tag %#x)", digits, key[0])
		}
	}

	// The desync the alias caused: two value-table entries behind one trie
	// leaf, the first of which no longer matches its commitment.
	s := NewStore()
	if err := s.Set(prefix+"7", []byte("seven")); err != nil {
		t.Fatal(err)
	}
	if err := s.Set(prefix+"007", []byte("double-oh-seven")); err != nil {
		t.Fatal(err)
	}
	for path, want := range map[string]string{prefix + "7": "seven", prefix + "007": "double-oh-seven"} {
		if got, err := s.Get(path); err != nil || string(got) != want {
			t.Errorf("Get(%q) = %q, %v; want %q", path, got, err, want)
		}
	}
}

// TestSequencedBuildersStayStructured: every path the builders emit parses
// back to its fields and takes the structured branch, at the edges of the
// sequence range and for awkward identifiers.
func TestSequencedBuildersStayStructured(t *testing.T) {
	seqs := []uint64{0, 1, 7, 9, 10, 99, 100, 1<<32 - 1, 1 << 32, math.MaxUint64 - 1, math.MaxUint64}
	ids := []struct {
		port PortID
		ch   ChannelID
	}{{"transfer", "channel-0"}, {"transfer-3", "channel-117"}, {"", ""}, {"p", "007"}, {"ports", "sequences"}}
	for i, b := range sequencedBuilders {
		for _, id := range ids {
			for _, seq := range seqs {
				path := b.build(id.port, id.ch, seq)
				if want := fmt.Sprintf("%s/ports/%s/channels/%s/sequences/%d", b.ns, id.port, id.ch, seq); path != want {
					t.Fatalf("built %q, want %q", path, want)
				}
				tag, port, ch, got, ok := splitSequencedPath(path)
				if !ok || tag != byte(i+1) || port != string(id.port) || ch != string(id.ch) || got != seq {
					t.Fatalf("split(%q) = %#x %q %q %d %v", path, tag, port, ch, got, ok)
				}
				if key := PathToKey(path); key[0] != tag || key != pathToKeySplit(path) {
					t.Fatalf("PathToKey(%q) = %x, reference %x", path, key, pathToKeySplit(path))
				}
			}
		}
	}
	// An identifier with a slash in it cannot be told apart from a longer
	// path: as before, such a path hashes flat.
	for _, path := range []string{
		CommitmentPath("a/b", "channel-0", 1),
		CommitmentPath("transfer", "channel-0/sequences/1", 1),
		"commitments/ports/transfer/channels/channel-0/sequences/1/",
		"commitments/ports/transfer/channels/channel-0/sequences",
		"nextSequenceSend/ports/transfer/channels/channel-0/sequences/1",
	} {
		if key := PathToKey(path); key[0] != keyTagHashed || key != pathToKeySplit(path) {
			t.Errorf("PathToKey(%q) = %x, reference %x", path, key, pathToKeySplit(path))
		}
	}
}

// TestSequencedPathAllocations pins what the hot path costs: one allocation
// to build a path, none to parse it, none to derive a key whose channel
// scope the memo holds.
func TestSequencedPathAllocations(t *testing.T) {
	scopeMemo.Store(nil) // room for this scope, whatever ran before
	path := CommitmentPath("transfer", "channel-0", 123_456)
	PathToKey(path) // memoise it
	for name, c := range map[string]struct {
		want float64
		f    func()
	}{
		"CommitmentPath":     {1, func() { _ = CommitmentPath("transfer", "channel-0", 123_456) }},
		"splitSequencedPath": {0, func() { _, _, _, _, _ = splitSequencedPath(path) }},
		"PathToKey":          {0, func() { _ = PathToKey(path) }},
	} {
		if got := testing.AllocsPerRun(200, c.f); got != c.want {
			t.Errorf("%s: %.0f allocations per call, want %.0f", name, got, c.want)
		}
	}
}

// TestChannelScopeMemoBounded: past scopeMemoMax distinct channels the
// table stops growing and keys are still right; two goroutines filling and
// reading it at once agree with the unmemoised digest (run under -race).
func TestChannelScopeMemoBounded(t *testing.T) {
	defer scopeMemo.Store(nil) // leave later tests an empty table, not a full one
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < scopeMemoMax+200; i++ {
				// Half the channels are shared between the goroutines.
				ch := fmt.Sprintf("memo-%d-%d", g*(i%2), i)
				for tag := keyTagCommitment; tag <= keyTagAck; tag++ {
					if got, want := channelScope(tag, "memo", ch), scopeDigest(tag, "memo", ch); got != want {
						t.Errorf("channelScope(%d, memo, %s) = %x, digest %x", tag, ch, got, want)
						return
					}
				}
				path := AckPath("memo", ChannelID(ch), uint64(i))
				if PathToKey(path) != pathToKeySplit(path) {
					t.Errorf("PathToKey(%q) differs from the reference", path)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if n := len(*scopeMemo.Load()); n > scopeMemoMax {
		t.Fatalf("memo holds %d scopes, bound %d", n, scopeMemoMax)
	}
}

// FuzzPathToKey: no string panics the key derivation or disagrees with the
// Split-based reference; the memoised channel scope equals the computed one
// on a miss and on a hit; and the builders spell their paths the way
// fmt.Sprintf did, and always land in the structured branch.
func FuzzPathToKey(f *testing.F) {
	f.Add("commitments/ports/transfer/channels/channel-0/sequences/7", "transfer", "channel-0", uint64(7))
	f.Add("receipts/ports/transfer/channels/channel-0/sequences/007", "bank", "channel-12", uint64(0))
	f.Add("acks/ports//channels//sequences/18446744073709551615", "", "", uint64(math.MaxUint64))
	f.Add("acks/ports/a/b/channels/c/sequences/1", "a/b", "c", uint64(1))
	f.Add("clients/07-tendermint-0/clientState", "p", "c", uint64(10))
	f.Add("commitments/ports/p/channels/c/sequences/+1", "ports", "channels", uint64(99))
	f.Add("commitments/ports/p/channels/c/sequences/18446744073709551616", "p", "sequences/1", uint64(1<<63))
	f.Fuzz(func(t *testing.T, path, port, channel string, seq uint64) {
		if got, want := PathToKey(path), pathToKeySplit(path); got != want {
			t.Fatalf("PathToKey(%q) = %x, reference %x", path, got, want)
		}
		for i, b := range sequencedBuilders {
			built := b.build(PortID(port), ChannelID(channel), seq)
			if want := fmt.Sprintf("%s/ports/%s/channels/%s/sequences/%d", b.ns, port, channel, seq); built != want {
				t.Fatalf("built %q, want %q", built, want)
			}
			key := PathToKey(built)
			if key != pathToKeySplit(built) {
				t.Fatalf("PathToKey(%q) = %x, reference %x", built, key, pathToKeySplit(built))
			}
			tag := byte(i + 1)
			if strings.Contains(port+channel, "/") {
				continue // not a sequenced path any more: hashed flat, checked above
			}
			if key[0] != tag {
				t.Fatalf("built path %q left the structured branch", built)
			}
			want := scopeDigest(tag, port, channel)
			if miss, hit := channelScope(tag, port, channel), channelScope(tag, port, channel); miss != want || hit != want {
				t.Fatalf("channelScope(%d, %q, %q) = %x then %x, digest %x", tag, port, channel, miss, hit, want)
			}
		}
	})
}

// TestEndReadsHandOutCopies: what a caller does to the channel or
// connection end it was handed never shows in the next read, and a
// rewritten end reads back rewritten.
func TestEndReadsHandOutCopies(t *testing.T) {
	p := newPair(t)
	h := p.a.handler
	first, err := h.Channel("transfer", p.chanA)
	must(t, err)
	want := *first
	first.State, first.Version, first.Counterparty.ChannelID = StateClosed, "scribbled", "channel-99"
	again, err := h.Channel("transfer", p.chanA)
	must(t, err)
	if *again != want {
		t.Fatalf("second read = %+v, want %+v: a caller's edit leaked", *again, want)
	}
	conn, err := h.Connection(want.ConnectionID)
	must(t, err)
	wantConn := *conn
	conn.State = StateInit
	if conn, err = h.Connection(want.ConnectionID); err != nil || *conn != wantConn {
		t.Fatalf("second connection read = %+v, %v; want %+v", conn, err, wantConn)
	}

	must(t, h.ChanCloseInit("transfer", p.chanA))
	closed, err := h.Channel("transfer", p.chanA)
	must(t, err)
	if closed.State != StateClosed {
		t.Fatalf("channel reads %v after ChanCloseInit", closed.State)
	}
	if _, err := h.SendPacket("transfer", p.chanA, []byte("x"), 0, p.a.now.Add(1)); !errors.Is(err, ErrChannelClosed) {
		t.Fatalf("send on the closed channel = %v, want ErrChannelClosed", err)
	}
}
