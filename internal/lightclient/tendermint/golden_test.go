package tendermint

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
	"time"

	"repro/internal/cryptoutil"
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
		{"Update.Marshal/4", digestHex(small.Marshal()), "aff4f50d30d90094b19a0b54226a52c023477ad1637c8b8f288cba1e43cc59fa"},
		{"Update.Marshal/24", digestHex(large.Marshal()), "19861a81d925a20c1e315c76e98602ea7c6c1b148b415377cfaa084bab155b5c"},
	} {
		if c.got != c.want {
			t.Errorf("%s = %s, want %s", c.name, c.got, c.want)
		}
	}
	if n, m := len(small.Marshal()), len(large.Marshal()); n != 512 || m != 2792 {
		t.Errorf("updates are %d and %d bytes, want 512 and 2792", n, m)
	}
}
