package guestlc

import (
	"errors"
	"testing"
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/guestblock"
	"repro/internal/ibc"
)

// guestSim produces guest blocks and quorum signatures for client tests.
type guestSim struct {
	keys  []*cryptoutil.PrivKey
	epoch *guestblock.Epoch
	head  *guestblock.Block
	now   time.Time
}

func newGuestSim(t *testing.T, label string, n int) *guestSim {
	t.Helper()
	g := &guestSim{now: time.Unix(1_700_000_000, 0).UTC()}
	vals := make([]guestblock.Validator, n)
	for i := 0; i < n; i++ {
		k := cryptoutil.GenerateKeyIndexed(label, i)
		g.keys = append(g.keys, k)
		vals[i] = guestblock.Validator{PubKey: k.Public(), Stake: 100}
	}
	epoch, err := guestblock.NewEpoch(0, vals)
	if err != nil {
		t.Fatal(err)
	}
	g.epoch = epoch
	g.head = &guestblock.Block{
		Height:          1,
		HostHeight:      1,
		Time:            g.now,
		StateRoot:       cryptoutil.HashBytes([]byte("genesis-root")),
		EpochIndex:      0,
		EpochCommitment: epoch.Commitment(),
	}
	return g
}

// next produces the next block (optionally rotating to nextEpoch).
func (g *guestSim) next(root cryptoutil.Hash, nextEpoch *guestblock.Epoch) *guestblock.Block {
	g.now = g.now.Add(30 * time.Second)
	b := &guestblock.Block{
		Height:          g.head.Height + 1,
		HostHeight:      g.head.HostHeight + 75,
		Time:            g.now,
		PrevHash:        g.head.Hash(),
		StateRoot:       root,
		EpochIndex:      g.epoch.Index,
		EpochCommitment: g.epoch.Commitment(),
		NextEpoch:       nextEpoch,
	}
	g.head = b
	if nextEpoch != nil {
		g.epoch = nextEpoch
	}
	return b
}

// signed builds a SignedBlock with the first n signers of epoch.
func signed(b *guestblock.Block, epoch *guestblock.Epoch, keys []*cryptoutil.PrivKey, n int) *guestblock.SignedBlock {
	sb := &guestblock.SignedBlock{Block: b}
	payload := b.SigningPayload()
	count := 0
	for _, k := range keys {
		if !epoch.Has(k.Public()) || count == n {
			continue
		}
		sb.Signatures = append(sb.Signatures, guestblock.BlockSignature{
			Height: b.Height, PubKey: k.Public(), Signature: k.SignHash(payload),
		})
		count++
	}
	return sb
}

func TestUpdateAdvancesAndServesProofQueries(t *testing.T) {
	g := newGuestSim(t, "glc-a", 4)
	c, err := NewClient(g.head, g.epoch)
	if err != nil {
		t.Fatal(err)
	}
	root := cryptoutil.HashBytes([]byte("r2"))
	b := g.next(root, nil)
	epoch := g.epoch
	if err := c.Update(signed(b, epoch, g.keys, 4).Marshal(), g.now); err != nil {
		t.Fatal(err)
	}
	if c.LatestHeight() != ibc.Height(b.Height) {
		t.Fatalf("latest = %d", c.LatestHeight())
	}
	ts, err := c.ConsensusTime(ibc.Height(b.Height))
	if err != nil || !ts.Equal(b.Time) {
		t.Fatalf("consensus time: %v %v", ts, err)
	}
}

func TestUpdateRejectsSubQuorum(t *testing.T) {
	g := newGuestSim(t, "glc-b", 3) // equal stakes 100, quorum 201
	c, err := NewClient(g.head, g.epoch)
	if err != nil {
		t.Fatal(err)
	}
	b := g.next(cryptoutil.HashBytes([]byte("x")), nil)
	if err := c.UpdateSigned(signed(b, g.epoch, g.keys, 2)); err == nil {
		t.Fatal("2-of-3 accepted (quorum is 201 of 300)")
	}
	if err := c.UpdateSigned(signed(b, g.epoch, g.keys, 3)); err != nil {
		t.Fatal(err)
	}
}

func TestUpdateRejectsStale(t *testing.T) {
	g := newGuestSim(t, "glc-c", 4)
	c, err := NewClient(g.head, g.epoch)
	if err != nil {
		t.Fatal(err)
	}
	b := g.next(cryptoutil.HashBytes([]byte("x")), nil)
	sb := signed(b, g.epoch, g.keys, 4)
	if err := c.UpdateSigned(sb); err != nil {
		t.Fatal(err)
	}
	if err := c.UpdateSigned(sb); !errors.Is(err, ErrStaleBlock) {
		t.Fatalf("err = %v, want ErrStaleBlock", err)
	}
}

func TestEpochRotation(t *testing.T) {
	g := newGuestSim(t, "glc-d", 4)
	c, err := NewClient(g.head, g.epoch)
	if err != nil {
		t.Fatal(err)
	}
	// Build epoch 1 with different validators.
	var newKeys []*cryptoutil.PrivKey
	var newVals []guestblock.Validator
	for i := 0; i < 4; i++ {
		k := cryptoutil.GenerateKeyIndexed("glc-d-next", i)
		newKeys = append(newKeys, k)
		newVals = append(newVals, guestblock.Validator{PubKey: k.Public(), Stake: 50})
	}
	next, err := guestblock.NewEpoch(1, newVals)
	if err != nil {
		t.Fatal(err)
	}

	oldEpoch := g.epoch
	oldKeys := g.keys
	rotation := g.next(cryptoutil.HashBytes([]byte("rot")), next)
	// The rotation block must be finalised by the OLD epoch.
	if err := c.UpdateSigned(signed(rotation, oldEpoch, oldKeys, 4)); err != nil {
		t.Fatal(err)
	}
	if c.Epoch().Index != 1 {
		t.Fatalf("client epoch = %d, want 1", c.Epoch().Index)
	}
	// Blocks after rotation are signed by the NEW set.
	b := g.next(cryptoutil.HashBytes([]byte("after")), nil)
	if err := c.UpdateSigned(signed(b, next, newKeys, 4)); err != nil {
		t.Fatal(err)
	}
	// Old validators cannot finalise new-epoch blocks.
	b2 := g.next(cryptoutil.HashBytes([]byte("after2")), nil)
	if err := c.UpdateSigned(signed(b2, oldEpoch, oldKeys, 4)); err == nil {
		t.Fatal("old epoch signatures accepted after rotation")
	}
}

func TestEpochMismatchRejected(t *testing.T) {
	g := newGuestSim(t, "glc-e", 4)
	c, err := NewClient(g.head, g.epoch)
	if err != nil {
		t.Fatal(err)
	}
	b := g.next(cryptoutil.HashBytes([]byte("x")), nil)
	b.EpochIndex = 5 // block claims an epoch the client has never seen
	if err := c.UpdateSigned(signed(b, g.epoch, g.keys, 4)); !errors.Is(err, ErrEpochMismatch) {
		t.Fatalf("err = %v, want ErrEpochMismatch", err)
	}
}

// TestRefusedRotationChangesNothing: a quorum-signed block that rotates
// to epoch 2 from epoch 0 skips an epoch. The client refuses it, and the
// refusal leaves its height, consensus states and trusted epoch as they
// were.
func TestRefusedRotationChangesNothing(t *testing.T) {
	g := newGuestSim(t, "glc-skip", 4)
	c, err := NewClient(g.head, g.epoch)
	if err != nil {
		t.Fatal(err)
	}
	vals := make([]guestblock.Validator, 4)
	for i := range vals {
		vals[i] = guestblock.Validator{PubKey: cryptoutil.GenerateKeyIndexed("glc-skip-next", i).Public(), Stake: 50}
	}
	skip, err := guestblock.NewEpoch(2, vals)
	if err != nil {
		t.Fatal(err)
	}
	epoch, before := g.epoch, c.LatestHeight()
	b := g.next(cryptoutil.HashBytes([]byte("skip")), skip)
	if err := c.UpdateSigned(signed(b, epoch, g.keys, 4)); err == nil {
		t.Fatal("rotation from epoch 0 to epoch 2 accepted")
	}
	if after := c.LatestHeight(); after != before {
		t.Fatalf("latest %d -> %d", before, after)
	}
	if _, err := c.ConsensusTime(ibc.Height(b.Height)); !errors.Is(err, ErrUnknownHeight) {
		t.Fatalf("refused block installed a consensus state: err = %v", err)
	}
	if c.Epoch() != epoch {
		t.Fatalf("client epoch = %d, want %d", c.Epoch().Index, epoch.Index)
	}
}

func TestMembershipVerificationThroughClient(t *testing.T) {
	// End to end with a real store: commit state, update the client with
	// a block carrying the root, verify a proof through the client.
	g := newGuestSim(t, "glc-f", 4)
	store := ibc.NewStore()
	if err := store.Set(ibc.CommitmentPath("transfer", "channel-0", 1), []byte("commit")); err != nil {
		t.Fatal(err)
	}
	c, err := NewClient(g.head, g.epoch)
	if err != nil {
		t.Fatal(err)
	}
	b := g.next(store.Root(), nil)
	if err := c.UpdateSigned(signed(b, g.epoch, g.keys, 4)); err != nil {
		t.Fatal(err)
	}
	// Prove from the versioned snapshot (the relayer path): commit the
	// block's state as a version, mutate the head, prove from the version.
	snap, err := store.At(store.CommitAt(b.Height))
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Set(ibc.CommitmentPath("transfer", "channel-0", 9), []byte("later")); err != nil {
		t.Fatal(err)
	}
	value, proof, err := snap.ProveMembership(ibc.CommitmentPath("transfer", "channel-0", 1))
	if err != nil {
		t.Fatal(err)
	}
	h := ibc.Height(b.Height)
	if err := c.VerifyMembership(h, ibc.CommitmentPath("transfer", "channel-0", 1), value, proof); err != nil {
		t.Fatal(err)
	}
	// Absent path verifies as absent — including one that exists at the
	// head but not in the frozen version.
	absent, err := snap.ProveNonMembership(ibc.CommitmentPath("transfer", "channel-0", 2))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.VerifyNonMembership(h, ibc.CommitmentPath("transfer", "channel-0", 2), absent); err != nil {
		t.Fatal(err)
	}
	absent, err = snap.ProveNonMembership(ibc.CommitmentPath("transfer", "channel-0", 9))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.VerifyNonMembership(h, ibc.CommitmentPath("transfer", "channel-0", 9), absent); err != nil {
		t.Fatal(err)
	}
	// Unknown height fails.
	if err := c.VerifyMembership(h+10, ibc.CommitmentPath("transfer", "channel-0", 1), value, proof); !errors.Is(err, ErrUnknownHeight) {
		t.Fatalf("err = %v, want ErrUnknownHeight", err)
	}
}

func TestMisbehaviourFreezesGuestClient(t *testing.T) {
	g := newGuestSim(t, "glc-g", 4)
	c, err := NewClient(g.head, g.epoch)
	if err != nil {
		t.Fatal(err)
	}
	// Two conflicting blocks at height 2, both carrying quorums (host
	// equivocation scenario, §VI-C).
	mk := func(tag string) *guestblock.SignedBlock {
		b := &guestblock.Block{
			Height:          2,
			HostHeight:      100,
			Time:            g.now.Add(time.Minute),
			PrevHash:        g.head.Hash(),
			StateRoot:       cryptoutil.HashBytes([]byte(tag)),
			EpochIndex:      0,
			EpochCommitment: g.epoch.Commitment(),
		}
		return signed(b, g.epoch, g.keys, 4)
	}
	if err := c.SubmitMisbehaviour(mk("fork-a"), mk("fork-b")); err != nil {
		t.Fatal(err)
	}
	if !c.Frozen() {
		t.Fatal("client not frozen")
	}
	b := g.next(cryptoutil.HashBytes([]byte("later")), nil)
	if err := c.UpdateSigned(signed(b, g.epoch, g.keys, 4)); !errors.Is(err, ErrFrozen) {
		t.Fatalf("frozen client accepted update: %v", err)
	}
}

func TestClientStateRoundTrip(t *testing.T) {
	g := newGuestSim(t, "glc-h", 4)
	c, err := NewClient(g.head, g.epoch)
	if err != nil {
		t.Fatal(err)
	}
	info, err := DecodeClientState(c.StateBytes())
	if err != nil {
		t.Fatal(err)
	}
	if info.Latest != c.LatestHeight() || info.EpochIndex != 0 || info.EpochCommitment != g.epoch.Commitment() {
		t.Fatalf("decoded: %+v", info)
	}
}

func TestNewClientRejectsMismatchedEpoch(t *testing.T) {
	g := newGuestSim(t, "glc-i", 4)
	other := newGuestSim(t, "glc-i-other", 3)
	if _, err := NewClient(g.head, other.epoch); err == nil {
		t.Fatal("mismatched genesis epoch accepted")
	}
}
