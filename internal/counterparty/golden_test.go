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
	for i, j := range c.setIndex {
		index[c.keys[j].Public()] = i
	}
	for _, want := range []struct {
		height  uint64
		signers []int
	}{
		{2, []int{20, 19, 5, 16, 3, 23, 9, 18, 11, 17, 13, 10, 12, 6, 4}},
		{17, []int{7, 20, 22, 5, 16, 9, 18, 11, 17, 10, 12, 6, 4, 2, 8, 15}},
		{41, []int{7, 20, 19, 22, 16, 3, 23, 9, 1, 17, 13, 6, 4, 2, 8, 15}},
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
	if got, want := hex.EncodeToString(sum[:]), "6bd635b104371244578171e70a96868331d5b4357bb520ba3505473b774cead7"; got != want {
		t.Errorf("update at height 17 = %s, want %s", got, want)
	}
}
