package guestblock

import (
	"testing"
	"testing/quick"
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/wire"
)

func testEpoch(t testing.TB, n int) (*Epoch, []*cryptoutil.PrivKey) {
	t.Helper()
	keys := make([]*cryptoutil.PrivKey, n)
	vals := make([]Validator, n)
	for i := range keys {
		keys[i] = cryptoutil.GenerateKeyIndexed("gb-val", i)
		vals[i] = Validator{PubKey: keys[i].Public(), Stake: uint64(100 + i)}
	}
	e, err := NewEpoch(1, vals)
	if err != nil {
		t.Fatal(err)
	}
	return e, keys
}

func testBlock(e *Epoch) *Block {
	return &Block{
		Height:          7,
		HostHeight:      12345,
		Time:            time.Unix(1_700_000_123, 0).UTC(),
		PrevHash:        cryptoutil.HashBytes([]byte("prev")),
		StateRoot:       cryptoutil.HashBytes([]byte("root")),
		EpochIndex:      e.Index,
		EpochCommitment: e.Commitment(),
	}
}

func TestEpochCanonicalOrder(t *testing.T) {
	a := Validator{PubKey: cryptoutil.GenerateKey("a").Public(), Stake: 10}
	b := Validator{PubKey: cryptoutil.GenerateKey("b").Public(), Stake: 20}
	e1, err := NewEpoch(0, []Validator{a, b})
	if err != nil {
		t.Fatal(err)
	}
	e2, err := NewEpoch(0, []Validator{b, a})
	if err != nil {
		t.Fatal(err)
	}
	if e1.Commitment() != e2.Commitment() {
		t.Fatal("epoch commitment depends on input order")
	}
}

func TestEpochQuorumIsTwoThirdsPlus(t *testing.T) {
	e, _ := testEpoch(t, 3) // stakes 100,101,102, total 303
	if e.QuorumStake != 303*2/3+1 {
		t.Fatalf("quorum = %d, want %d", e.QuorumStake, 303*2/3+1)
	}
}

func TestEpochRejectsZeroStakeAndDuplicates(t *testing.T) {
	k := cryptoutil.GenerateKey("dup").Public()
	if _, err := NewEpoch(0, []Validator{{PubKey: k, Stake: 0}}); err == nil {
		t.Fatal("zero stake accepted")
	}
	if _, err := NewEpoch(0, []Validator{{PubKey: k, Stake: 1}, {PubKey: k, Stake: 2}}); err == nil {
		t.Fatal("duplicate validator accepted")
	}
	if _, err := NewEpoch(0, nil); err == nil {
		t.Fatal("empty epoch accepted")
	}
}

func TestBlockRoundTrip(t *testing.T) {
	e, _ := testEpoch(t, 4)
	b := testBlock(e)
	b.NextEpoch = e

	w := wire.NewWriter()
	b.Encode(w)
	r := wire.NewReader(w.Bytes())
	got, err := DecodeBlock(r)
	if err != nil {
		t.Fatal(err)
	}
	if got.Hash() != b.Hash() {
		t.Fatal("hash changed across encode/decode")
	}
	if got.NextEpoch == nil || got.NextEpoch.Commitment() != e.Commitment() {
		t.Fatal("next epoch lost")
	}
}

func TestSignedBlockQuorum(t *testing.T) {
	e, keys := testEpoch(t, 4) // stakes 100..103, total 406, quorum 271
	b := testBlock(e)
	payload := b.SigningPayload()

	sb := &SignedBlock{Block: b}
	// Two signatures (100+101=201) are below quorum.
	for i := 0; i < 2; i++ {
		sb.Signatures = append(sb.Signatures, BlockSignature{
			Height: b.Height, PubKey: keys[i].Public(), Signature: keys[i].SignHash(payload),
		})
	}
	if err := sb.VerifyQuorum(e); err == nil {
		t.Fatal("sub-quorum signed block verified")
	}
	// Third signature crosses quorum.
	sb.Signatures = append(sb.Signatures, BlockSignature{
		Height: b.Height, PubKey: keys[2].Public(), Signature: keys[2].SignHash(payload),
	})
	if err := sb.VerifyQuorum(e); err != nil {
		t.Fatal(err)
	}
	// A block with two bad signatures, at positions 1 and 3.
	bad := &SignedBlock{Block: b}
	for _, k := range keys {
		bad.Signatures = append(bad.Signatures, BlockSignature{
			Height: b.Height, PubKey: k.Public(), Signature: k.SignHash(payload),
		})
	}
	bad.Signatures[1].Signature[0] ^= 0xff
	bad.Signatures[3].Signature[0] ^= 0xff
	wantErr := "guestblock: invalid signature from " + keys[1].Public().Short()
	// The verdict does not depend on how the signatures are checked: one
	// worker, the pool, or the pool behind the verification cache — where
	// the second pass answers from the cache. Nor does the offender named:
	// it is the lower of the two bad signers, as a sequential loop finds.
	for name, v := range map[string]*cryptoutil.BatchVerifier{
		"sequential":   cryptoutil.NewBatchVerifier(cryptoutil.WithWorkers(1), cryptoutil.WithCacheSize(0)),
		"batch":        cryptoutil.NewBatchVerifier(cryptoutil.WithCacheSize(0)),
		"batch-cached": cryptoutil.NewBatchVerifier(),
	} {
		for pass := 0; pass < 2; pass++ {
			if err := sb.VerifyQuorumWith(e, v); err != nil {
				t.Fatalf("%s verifier, pass %d: %v", name, pass, err)
			}
			if err := bad.VerifyQuorumWith(e, v); err == nil || err.Error() != wantErr {
				t.Fatalf("%s verifier, pass %d: two bad signatures: err = %v, want %q", name, pass, err, wantErr)
			}
		}
	}
}

func TestSignedBlockRejectsForgery(t *testing.T) {
	e, keys := testEpoch(t, 4)
	b := testBlock(e)
	payload := b.SigningPayload()

	good := func() *SignedBlock {
		sb := &SignedBlock{Block: b}
		for _, k := range keys {
			sb.Signatures = append(sb.Signatures, BlockSignature{
				Height: b.Height, PubKey: k.Public(), Signature: k.SignHash(payload),
			})
		}
		return sb
	}

	// Duplicate signer.
	sb := good()
	sb.Signatures[1] = sb.Signatures[0]
	if err := sb.VerifyQuorum(e); err == nil {
		t.Fatal("duplicate signer accepted")
	}

	// Outsider signer.
	sb = good()
	outsider := cryptoutil.GenerateKey("outsider")
	sb.Signatures[0] = BlockSignature{Height: b.Height, PubKey: outsider.Public(), Signature: outsider.SignHash(payload)}
	if err := sb.VerifyQuorum(e); err == nil {
		t.Fatal("outsider signer accepted")
	}

	// Signature over a different block.
	sb = good()
	other := testBlock(e)
	other.Height++
	sb.Signatures[0].Signature = keys[0].SignHash(other.SigningPayload())
	if err := sb.VerifyQuorum(e); err == nil {
		t.Fatal("wrong-payload signature accepted")
	}

	// Wrong epoch.
	e2, _ := testEpoch(t, 3)
	e2.Index = 99
	if err := good().VerifyQuorum(e2); err == nil {
		t.Fatal("wrong epoch accepted")
	}
}

func TestSignedBlockMarshalRoundTrip(t *testing.T) {
	e, keys := testEpoch(t, 4)
	b := testBlock(e)
	payload := b.SigningPayload()
	sb := &SignedBlock{Block: b}
	for _, k := range keys {
		sb.Signatures = append(sb.Signatures, BlockSignature{
			Height: b.Height, PubKey: k.Public(), Signature: k.SignHash(payload),
		})
	}
	data := sb.Marshal()
	got, err := UnmarshalSignedBlock(data)
	if err != nil {
		t.Fatal(err)
	}
	if err := got.VerifyQuorum(e); err != nil {
		t.Fatal(err)
	}
	if got.Block.Hash() != b.Hash() {
		t.Fatal("block hash changed")
	}
	// Trailing garbage must be rejected.
	if _, err := UnmarshalSignedBlock(append(data, 0)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

func TestQuickBlockHashBindsFields(t *testing.T) {
	e, _ := testEpoch(t, 2)
	base := testBlock(e)
	f := func(height, hostHeight uint64, rootSeed uint8) bool {
		b := *base
		b.Height = height
		b.HostHeight = hostHeight
		b.StateRoot = cryptoutil.HashTagged('R', []byte{rootSeed})
		b2 := b
		b2.Height++
		return b.Hash() != b2.Hash()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
