package counterparty

import (
	"crypto/sha256"
	"encoding/hex"
	"reflect"
	"testing"
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/host"
)

// TestUpdateAtGolden pins the signer subset UpdateAt draws at three
// heights of a 24-validator chain (as key indices, in commit order) and
// the bytes of one whole update, so a change to how the subset is drawn or
// the update is built must reproduce both exactly.
func TestUpdateAtGolden(t *testing.T) {
	clock := host.NewManualClock(time.Unix(1_700_000_000, 0).UTC())
	cfg := DefaultConfig()
	cfg.NumValidators = 24
	c, err := New(cfg, clock)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		clock.Advance(cfg.BlockInterval)
		c.ProduceBlock()
	}
	index := make(map[cryptoutil.PubKey]int, len(c.keys))
	for i, k := range c.keys {
		index[k.Public()] = i
	}
	for _, want := range []struct {
		height  uint64
		signers []int
	}{
		{2, []int{9, 2, 6, 0, 10, 5, 1, 21, 8, 3, 14, 20, 19, 22, 11, 12, 15, 16, 4, 18, 13, 7, 17, 23}},
		{17, []int{21, 0, 16, 7, 5, 22, 11, 8, 4, 10, 18, 6, 17, 15, 2, 20, 12, 9}},
		{41, []int{6, 23, 15, 22, 3, 8, 17, 9, 16, 4, 19, 20, 13, 2, 7, 1, 21, 0}},
	} {
		u, err := c.UpdateAt(want.height)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]int, len(u.Commit))
		for i, cs := range u.Commit {
			got[i] = index[cs.PubKey]
		}
		if !reflect.DeepEqual(got, want.signers) {
			t.Errorf("signers at height %d = %#v, want %#v", want.height, got, want.signers)
		}
	}
	u, err := c.UpdateAt(17)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(u.Marshal())
	if got, want := hex.EncodeToString(sum[:]), "f1e1891707cee7425b3ad588fba473d3a7d70ef6489073c05cf4c83f279a1ce8"; got != want {
		t.Errorf("update at height 17 = %s, want %s", got, want)
	}
}
