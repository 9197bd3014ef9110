package guestblock

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
	"time"

	"repro/internal/cryptoutil"
)

// TestEncodingGolden pins the epoch commitment, block hashes, signing
// payload and signed-block encoding to literal bytes — for a plain block
// and for the last block of an epoch, which carries the next validator set
// — so a change to how they are built must leave each of them as it was.
func TestEncodingGolden(t *testing.T) {
	keys := make([]*cryptoutil.PrivKey, 5)
	vals := make([]Validator, len(keys))
	for i := range keys {
		keys[i] = cryptoutil.GenerateKeyIndexed("golden-gb", i)
		vals[i] = Validator{PubKey: keys[i].Public(), Stake: uint64(1000 + 37*i)}
	}
	epoch, err := NewEpoch(3, vals[:4])
	if err != nil {
		t.Fatal(err)
	}
	next, err := NewEpoch(4, vals[1:])
	if err != nil {
		t.Fatal(err)
	}
	plain := &Block{
		Height:          99,
		HostHeight:      123_456,
		Time:            time.Unix(1_700_000_099, 5).UTC(),
		PrevHash:        cryptoutil.HashBytes([]byte("prev")),
		StateRoot:       cryptoutil.HashBytes([]byte("root")),
		EpochIndex:      epoch.Index,
		EpochCommitment: epoch.Commitment(),
	}
	last := *plain
	last.Height++
	last.Time = time.Time{}
	last.NextEpoch = next

	signed := func(b *Block) *SignedBlock {
		sb := &SignedBlock{Block: b}
		for _, k := range keys[:3] {
			sb.Signatures = append(sb.Signatures, BlockSignature{
				PubKey: k.Public(), Signature: k.SignHash(b.SigningPayload()),
			})
		}
		return sb
	}
	digest := func(b []byte) string {
		sum := sha256.Sum256(b)
		return hex.EncodeToString(sum[:])
	}
	for _, c := range []struct{ name, got, want string }{
		{"Epoch.Commitment", epoch.Commitment().Hex(), "f17c06c1c0b0abfe68a8887595addc92ebfb4d924680cc884d4c07dab36e168c"},
		{"Epoch.Commitment/next", next.Commitment().Hex(), "533d760ea950455dede6c6273ea2fe0798b2bf7cef751d0998ade61c7f7ce950"},
		{"Block.Hash", plain.Hash().Hex(), "c6b3b8b633112fa13fcecf982a8f6aad10f76efa2190b39241ec6e1a852ae962"},
		{"Block.Hash/next-epoch", last.Hash().Hex(), "5c173b140b761009f95f0ea59d246c208c9f168cc51f526b3abe9d8de86618d8"},
		{"Block.SigningPayload", plain.SigningPayload().Hex(), "7cc166285563946be5f7b75a885631fab2658bab76ec44159e4a0043ea39fd6f"},
		{"Block.SigningPayload/next-epoch", last.SigningPayload().Hex(), "defa86d85888f8c250e85f9fe66e15c3e6e8261f3904307308bf1e166d2fdb9e"},
		{"SignedBlock.Marshal", digest(signed(plain).Marshal()), "9d728089995009c6114f9cb615b6871c4a361e8b10a4b9552ca8094642262fba"},
		{"SignedBlock.Marshal/next-epoch", digest(signed(&last).Marshal()), "4ae578103426287849c43ed81cdfa31a88dfc87cee509f648d4e52c458628645"},
	} {
		if c.got != c.want {
			t.Errorf("%s = %s, want %s", c.name, c.got, c.want)
		}
	}
	if n, m := len(signed(plain).Marshal()), len(signed(&last).Marshal()); n != 419 || m != 597 {
		t.Errorf("signed blocks are %d and %d bytes, want 419 and 597", n, m)
	}
}
