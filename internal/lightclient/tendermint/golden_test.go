package tendermint

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/wire"
)

// goldenUpdate builds a fixed update over n validators: powers 10+i%7 as
// the counterparty assigns them, all but the last key signing, and the
// last commit entry carrying a zero timestamp (the other branch of the
// time encoding).
func goldenUpdate(t *testing.T, n int) *Update {
	t.Helper()
	keys := make([]*cryptoutil.PrivKey, n)
	vals := make([]Validator, n)
	for i := range keys {
		keys[i] = cryptoutil.GenerateKeyIndexed("golden-tm", i)
		vals[i] = Validator{PubKey: keys[i].Public(), Power: 10 + uint64(i%7)}
	}
	vs, err := NewValidatorSet(vals)
	if err != nil {
		t.Fatal(err)
	}
	h := &Header{
		ChainID:        "golden-chain",
		Height:         42,
		Time:           time.Unix(1_700_000_042, 123_456_789).UTC(),
		AppRoot:        cryptoutil.HashBytes([]byte("app")),
		ValSetHash:     vs.Hash(),
		NextValSetHash: cryptoutil.HashBytes([]byte("next")),
	}
	commit := SignCommit(h, keys[:n-1], h.Time.Add(time.Second))
	commit[len(commit)-1].Timestamp = time.Time{}
	return &Update{Header: h, Commit: commit, ValSet: vs}
}

func digestHex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestEncodingGolden pins every digest and encoding a light-client update
// carries to literal bytes, so a change to how they are built (buffer
// sizing, hashing on the stack, a payload computed once) must leave each
// of them as it was.
func TestEncodingGolden(t *testing.T) {
	small := goldenUpdate(t, 4)
	large := goldenUpdate(t, 24)
	h := small.Header
	for _, c := range []struct{ name, got, want string }{
		{"ValidatorSet.Hash/4", small.ValSet.Hash().Hex(), "4000d44db56ae05ee5600b005e8b0acc899fcc5a1819dfa415a570427e62b8d4"},
		{"ValidatorSet.Hash/24", large.ValSet.Hash().Hex(), "6d09d744aae0b0315ae6ce57c3280cce56912c4a60dba67c8b3af186b005e6cf"},
		{"Header.Hash", h.Hash().Hex(), "966d3151dac88dea4f49163d696b1d33d9a23115d67d023ae6310ce7370966ae"},
		{"VotePayload", VotePayload(h.Hash(), small.Commit[0].Timestamp).Hex(), "c1191a1d740fced9efe348d11fbc68bff38f305a3624e4f1cb3b6afa18041e76"},
		{"VotePayload/zero-time", VotePayload(h.Hash(), time.Time{}).Hex(), "8602da970e44b795ba01aadb8997c1ab256155f5d96ca65524c4d88b51a23ab4"},
		{"Update.Marshal/4", digestHex(small.Marshal()), "f56fd153b14cc3eecf69749feba52ada6a52ee64a095ea10293c366a45972bfa"},
		{"Update.Marshal/24", digestHex(large.Marshal()), "f08897b12e3e47fd7f4106eb5075773bddc80433f97c16540e59d34c9f5b5419"},
	} {
		if c.got != c.want {
			t.Errorf("%s = %s, want %s", c.name, c.got, c.want)
		}
	}
	if n, m := len(small.Marshal()), len(large.Marshal()); n != 512 || m != 2792 {
		t.Errorf("updates are %d and %d bytes, want 512 and 2792", n, m)
	}
	// The set leads, then the header: what a relayer stages before it picks
	// the height is a prefix of every update under that set.
	for _, u := range []*Update{small, large} {
		w := wire.NewWriter()
		u.ValSet.Encode(w)
		u.Header.Encode(w)
		if !bytes.HasPrefix(u.Marshal(), w.Bytes()) {
			t.Errorf("update over %d validators does not start with set ‖ header", len(u.ValSet.Validators))
		}
	}
}
