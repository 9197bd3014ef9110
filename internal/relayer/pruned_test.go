package relayer

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"repro/internal/guest"
	"repro/internal/host"
	"repro/internal/ibc"
	"repro/internal/netsim"
)

// mintFinalisedBlock writes a value and mints a finalised guest block via
// the direct (operator) path.
func mintFinalisedBlock(t *testing.T, e *bootEnv, st *guest.State, tag string) *guest.BlockEntry {
	t.Helper()
	e.clock.Advance(host.SlotDuration)
	e.chain.ProduceBlock()
	st.BeginDirect(e.clock.Now(), uint64(e.chain.Slot()))
	if err := st.Store.Set("pruned/"+tag, []byte(tag)); err != nil {
		t.Fatal(err)
	}
	entry, err := st.DirectGenerateBlock()
	if err != nil {
		t.Fatal(err)
	}
	if err := st.DirectFinalise(entry, e.keys); err != nil {
		t.Fatal(err)
	}
	return entry
}

func TestProveGuestMembershipRecoversFromPrunedSnapshot(t *testing.T) {
	env := newLinkEnv(t, guestLink, netsim.Config{})
	e, res := env.bootEnv, env.res
	g := env.relayer.ends[1].(*guestEnd)

	st, err := e.contract.State(e.chain)
	if err != nil {
		t.Fatal(err)
	}
	// Shrink the retention window so a few blocks prune the target height.
	st.Params.SnapshotRetention = 3

	target := mintFinalisedBlock(t, e, st, "target")
	height := target.Block.Height
	path := "pruned/target"
	for i := 0; i < 5; i++ {
		mintFinalisedBlock(t, e, st, fmt.Sprintf("filler%d", i))
	}

	// The original height is gone from retention...
	if _, _, err := st.ProveMembershipAt(height, path); !errors.Is(err, guest.ErrSnapshotPruned) {
		t.Fatalf("ProveMembershipAt = %v, want ErrSnapshotPruned", err)
	}
	// ...but the relayer falls forward to the newest finalised root.
	proof, provedAt, err := g.proveMembership(height, path)
	if err != nil {
		t.Fatalf("proveGuestMembership did not recover: %v", err)
	}
	latest := st.LatestFinalised()
	if provedAt != latest.Block.Height {
		t.Fatalf("provedAt = %d, want latest finalised %d", provedAt, latest.Block.Height)
	}
	value, err := st.Store.Get(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(value, []byte("target")) {
		t.Fatalf("value = %q", value)
	}
	if err := ibc.VerifyStoredMembership(latest.Block.StateRoot, path, value, proof); err != nil {
		t.Fatalf("recovered proof does not verify: %v", err)
	}
	// The fall-forward also advanced the counterparty's guest client, so
	// the proof is submittable at provedAt right away.
	client, err := e.cp.Handler().Client(res.GuestOnCPClientID)
	if err != nil {
		t.Fatal(err)
	}
	if uint64(client.LatestHeight()) < provedAt {
		t.Fatalf("cp guest client at %d, want >= %d", client.LatestHeight(), provedAt)
	}
	// A genuinely unknown height still fails.
	if _, _, err := g.proveMembership(10_000, path); err == nil {
		t.Fatal("bogus height unexpectedly proved")
	}
}
