package counterparty

import (
	"math"
	"testing"
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/host"
	"repro/internal/ibc"
	"repro/internal/lightclient/tendermint"
)

func newTestCP(t *testing.T) (*Chain, *host.ManualClock) {
	t.Helper()
	clock := host.NewManualClock(time.Unix(1_700_000_000, 0).UTC())
	cfg := DefaultConfig()
	cfg.NumValidators = 12
	c, err := New(cfg, clock)
	if err != nil {
		t.Fatal(err)
	}
	return c, clock
}

func TestGenesisAndBlocks(t *testing.T) {
	c, clock := newTestCP(t)
	if c.Height() != 1 {
		t.Fatalf("genesis height = %d", c.Height())
	}
	clock.Advance(6 * time.Second)
	h := c.ProduceBlock()
	if h.Height != 2 || !h.Time.Equal(clock.Now()) {
		t.Fatalf("block: %+v", h)
	}
	if _, err := c.HeaderAt(2); err != nil {
		t.Fatal(err)
	}
	if _, err := c.HeaderAt(3); err == nil {
		t.Fatal("future header served")
	}
}

func TestUpdatesVerifyAgainstOwnClient(t *testing.T) {
	c, clock := newTestCP(t)
	hdr, vals := c.GenesisUpdate()
	client, err := tendermint.NewClient(c.ChainID(), hdr, vals)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		clock.Advance(6 * time.Second)
		c.ProduceBlock()
	}
	u, err := c.UpdateAt(c.Height())
	if err != nil {
		t.Fatal(err)
	}
	if err := client.UpdateVerified(u, clock.Now()); err != nil {
		t.Fatalf("own update rejected: %v", err)
	}
	// Deterministic regeneration: asking again yields the same commit.
	u2, err := c.UpdateAt(c.Height())
	if err != nil {
		t.Fatal(err)
	}
	if len(u.Commit) != len(u2.Commit) {
		t.Fatal("commit regeneration not deterministic")
	}
}

func TestParticipationVariesWithinBounds(t *testing.T) {
	c, clock := newTestCP(t)
	seen := map[int]bool{}
	for i := 0; i < 60; i++ {
		clock.Advance(6 * time.Second)
		c.ProduceBlock()
		u, err := c.UpdateAt(c.Height())
		if err != nil {
			t.Fatal(err)
		}
		n := len(u.Commit)
		if n < 8 || n > 12 {
			t.Fatalf("participation %d of 12 out of bounds", n)
		}
		seen[n] = true
	}
	if len(seen) < 2 {
		t.Fatal("participation never varied (update sizes would be constant)")
	}
}

func TestProofsAgainstSnapshots(t *testing.T) {
	c, clock := newTestCP(t)
	if err := c.Store().Set(ibc.CommitmentPath("transfer", "channel-0", 1), []byte("v1")); err != nil {
		t.Fatal(err)
	}
	clock.Advance(6 * time.Second)
	c.ProduceBlock()
	h1 := c.Height()

	// Mutate after the block: proofs at h1 must still verify against the
	// h1 root.
	if err := c.Store().Set(ibc.CommitmentPath("transfer", "channel-0", 2), []byte("v2")); err != nil {
		t.Fatal(err)
	}
	clock.Advance(6 * time.Second)
	c.ProduceBlock()

	value, proof, err := c.ProveMembershipAt(h1, ibc.CommitmentPath("transfer", "channel-0", 1))
	if err != nil {
		t.Fatal(err)
	}
	hdr, err := c.HeaderAt(h1)
	if err != nil {
		t.Fatal(err)
	}
	if err := ibc.VerifyStoredMembership(hdr.AppRoot, ibc.CommitmentPath("transfer", "channel-0", 1), value, proof); err != nil {
		t.Fatal(err)
	}
	// Sequence 2 is absent at h1 but present later.
	absent, err := c.ProveNonMembershipAt(h1, ibc.CommitmentPath("transfer", "channel-0", 2))
	if err != nil {
		t.Fatal(err)
	}
	if err := ibc.VerifyStoredNonMembership(hdr.AppRoot, ibc.CommitmentPath("transfer", "channel-0", 2), absent); err != nil {
		t.Fatal(err)
	}
}

func TestSharedSnapshotsForUnchangedRoots(t *testing.T) {
	c, clock := newTestCP(t)
	for i := 0; i < 5; i++ {
		clock.Advance(6 * time.Second)
		c.ProduceBlock()
	}
	// All five heights share the genesis version (root never changed).
	s2, err := c.SnapshotAt(2)
	if err != nil {
		t.Fatal(err)
	}
	s5, err := c.SnapshotAt(5)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Version() != s5.Version() {
		t.Fatalf("unchanged roots did not share a version: %d vs %d", s2.Version(), s5.Version())
	}
	if c.store.RetainedVersions() != 1 {
		t.Fatalf("retained %d versions for one distinct root, want 1", c.store.RetainedVersions())
	}
}

func TestValidateSelfClient(t *testing.T) {
	c, _ := newTestCP(t)
	hdr, vals := c.GenesisUpdate()
	client, err := tendermint.NewClient(c.ChainID(), hdr, vals)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.ValidateSelfClient(client.StateBytes()); err != nil {
		t.Fatal(err)
	}
	// A client for another chain is rejected.
	other, err := New(Config{ChainID: "other", NumValidators: 4, BlockInterval: time.Second,
		ParticipationMin: 0.7, Seed: 9}, host.NewManualClock(time.Unix(0, 0)))
	if err != nil {
		t.Fatal(err)
	}
	oh, ov := other.GenesisUpdate()
	oc, err := tendermint.NewClient("other", oh, ov)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.ValidateSelfClient(oc.StateBytes()); err == nil {
		t.Fatal("foreign client state accepted")
	}
}

func TestSendPacketRelayableNextBlock(t *testing.T) {
	c, clock := newTestCP(t)
	// Open-channel plumbing is covered elsewhere; sending on a missing
	// channel must fail cleanly.
	if _, err := c.SendPacket("transfer", "channel-0", []byte("x"), 0, time.Time{}); err == nil {
		t.Fatal("send on missing channel accepted")
	}
	_ = clock
}

// TestEveryBlockHasAcceptedUpdate: the validators that sign a block carry
// more than 2/3 of the power, so a client anchored at genesis accepts the
// update of every one of 2 000 blocks of a 24-validator chain. A draw by
// count alone left some blocks short of 2/3 of the power. Each update
// carries a minimal quorum: without its weakest signer it falls short.
func TestEveryBlockHasAcceptedUpdate(t *testing.T) {
	clock := host.NewManualClock(time.Unix(1_700_000_000, 0).UTC())
	cfg := DefaultConfig()
	cfg.NumValidators = 24
	c, err := New(cfg, clock)
	if err != nil {
		t.Fatal(err)
	}
	hdr, vals := c.GenesisUpdate()
	power := make(map[cryptoutil.PubKey]uint64, len(vals.Validators))
	for _, v := range vals.Validators {
		power[v.PubKey] = v.Power
	}
	total := vals.TotalPower()
	for i := 0; i < 2000; i++ {
		clock.Advance(cfg.BlockInterval)
		c.ProduceBlock()
		u, err := c.UpdateAt(c.Height())
		if err != nil {
			t.Fatal(err)
		}
		client, err := tendermint.NewClient(c.ChainID(), hdr, vals)
		if err != nil {
			t.Fatal(err)
		}
		if err := client.UpdateVerified(u, clock.Now()); err != nil {
			t.Fatalf("height %d: %v", c.Height(), err)
		}
		signed, weakest := uint64(0), uint64(math.MaxUint64)
		for _, cs := range u.Commit {
			p := power[cs.PubKey]
			signed += p
			weakest = min(weakest, p)
		}
		if (signed-weakest)*3 > total*2 {
			t.Fatalf("height %d: %d signers carry %d of %d without their weakest (%d): not a minimal quorum", c.Height(), len(u.Commit), signed-weakest, total, weakest)
		}
	}
}
