package tendermint

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/ibc"
)

// testChain is a miniature header producer for client tests.
type testChain struct {
	chainID string
	keys    []*cryptoutil.PrivKey
	valset  *ValidatorSet
	height  uint64
	now     time.Time
}

func newTestChain(t *testing.T, n int) *testChain {
	return newNamedTestChain(t, "tm-test", n)
}

func newNamedTestChain(t testing.TB, label string, n int) *testChain {
	t.Helper()
	c := &testChain{chainID: "test-chain", now: time.Unix(1_700_000_000, 0).UTC()}
	vals := make([]Validator, n)
	for i := 0; i < n; i++ {
		k := cryptoutil.GenerateKeyIndexed(label, i)
		c.keys = append(c.keys, k)
		vals[i] = Validator{PubKey: k.Public(), Power: 10}
	}
	vs, err := NewValidatorSet(vals)
	if err != nil {
		t.Fatal(err)
	}
	c.valset = vs
	return c
}

func (c *testChain) header(root cryptoutil.Hash) *Header {
	c.height++
	c.now = c.now.Add(6 * time.Second)
	return &Header{
		ChainID:        c.chainID,
		Height:         c.height,
		Time:           c.now,
		AppRoot:        root,
		ValSetHash:     c.valset.Hash(),
		NextValSetHash: c.valset.Hash(),
	}
}

// update builds a signed update using the first n signer keys.
func (c *testChain) update(h *Header, signers int) *Update {
	return &Update{
		Header: h,
		Commit: SignCommit(h, c.keys[:signers], h.Time),
		ValSet: c.valset,
	}
}

func newTestClient(t *testing.T, c *testChain) *Client {
	t.Helper()
	anchor := c.header(cryptoutil.HashBytes([]byte("genesis")))
	client, err := NewClient(c.chainID, anchor, c.valset)
	if err != nil {
		t.Fatal(err)
	}
	return client
}

func TestUpdateAdvances(t *testing.T) {
	c := newTestChain(t, 10)
	client := newTestClient(t, c)
	h := c.header(cryptoutil.HashBytes([]byte("r2")))
	u := c.update(h, 10)
	if err := client.Update(u.Marshal(), c.now); err != nil {
		t.Fatal(err)
	}
	if client.LatestHeight() != ibc.Height(h.Height) {
		t.Fatalf("latest = %d, want %d", client.LatestHeight(), h.Height)
	}
	ts, err := client.ConsensusTime(ibc.Height(h.Height))
	if err != nil || !ts.Equal(h.Time) {
		t.Fatalf("consensus time = %v, %v", ts, err)
	}
	if root := client.consensus[ibc.Height(h.Height)].AppRoot; root != h.AppRoot {
		t.Fatalf("consensus root = %v, want %v", root, h.AppRoot)
	}
}

func TestUpdateRejectsSubQuorum(t *testing.T) {
	c := newTestChain(t, 9)
	client := newTestClient(t, c)
	h := c.header(cryptoutil.ZeroHash)
	// 6 of 9 equal powers = exactly 2/3, NOT more than 2/3. The tally
	// refuses it before any of its signatures is verified.
	u := c.update(h, 6)
	misses := cryptoutil.DefaultBatchVerifier().Stats().Misses
	if err := client.UpdateVerified(u, c.now); !errors.Is(err, ErrInsufficientSig) {
		t.Fatalf("err = %v, want ErrInsufficientSig", err)
	}
	if got := cryptoutil.DefaultBatchVerifier().Stats().Misses; got != misses {
		t.Errorf("an under-powered commit cost %d signature verifications, want 0", got-misses)
	}
	// 7 of 9 passes.
	u = c.update(h, 7)
	if err := client.UpdateVerified(u, c.now); err != nil {
		t.Fatal(err)
	}
}

func TestUpdateRejectsStaleAndWrongChain(t *testing.T) {
	c := newTestChain(t, 4)
	client := newTestClient(t, c)
	h := c.header(cryptoutil.ZeroHash)
	u := c.update(h, 4)
	if err := client.UpdateVerified(u, c.now); err != nil {
		t.Fatal(err)
	}
	// Same height again -> stale.
	if err := client.UpdateVerified(u, c.now); !errors.Is(err, ErrStaleHeader) {
		t.Fatalf("err = %v, want ErrStaleHeader", err)
	}
	// Wrong chain id.
	h2 := c.header(cryptoutil.ZeroHash)
	h2.ChainID = "evil-chain"
	u2 := c.update(h2, 4)
	if err := client.UpdateVerified(u2, c.now); err == nil {
		t.Fatal("wrong chain id accepted")
	}
}

func TestUpdateRejectsForgedSignature(t *testing.T) {
	c := newTestChain(t, 4)
	client := newTestClient(t, c)
	h := c.header(cryptoutil.ZeroHash)
	u := c.update(h, 4)
	// Corrupt one signature.
	u.Commit[0].Signature[5] ^= 0xff
	if err := client.UpdateVerified(u, c.now); err == nil {
		t.Fatal("forged signature accepted")
	}
}

func TestUpdateRejectsDuplicateSigner(t *testing.T) {
	c := newTestChain(t, 4)
	client := newTestClient(t, c)
	h := c.header(cryptoutil.ZeroHash)
	u := c.update(h, 3)
	u.Commit = append(u.Commit, u.Commit[0])
	if err := client.UpdateVerified(u, c.now); err == nil {
		t.Fatal("duplicate signer accepted")
	}
}

// TestUpdateRejectsCommitOutOfSetOrder: an in-memory commit is held to
// the wire's rule — members of the set in strictly ascending set order —
// before any signature is verified.
func TestUpdateRejectsCommitOutOfSetOrder(t *testing.T) {
	c := newTestChain(t, 4)
	client := newTestClient(t, c)
	h := c.header(cryptoutil.ZeroHash)
	swapped := c.update(h, 4)
	swapped.Commit[0], swapped.Commit[1] = swapped.Commit[1], swapped.Commit[0]
	stranger := c.update(h, 4)
	stranger.Commit[3] = SignCommit(h, []*cryptoutil.PrivKey{cryptoutil.GenerateKey("tm-stranger")}, h.Time)[0]
	for name, u := range map[string]*Update{"swapped": swapped, "non-member": stranger} {
		if err := client.UpdateVerified(u, c.now); !errors.Is(err, ErrCommitIndex) {
			t.Errorf("%s: err = %v, want ErrCommitIndex", name, err)
		}
		if _, err := UnmarshalUpdate(u.Marshal()); !errors.Is(err, ErrCommitIndex) {
			t.Errorf("%s, marshalled: err = %v, want ErrCommitIndex", name, err)
		}
	}
}

// TestQuorum: the fewest participants over 2/3 of the power, strongest
// first with ties to the lower set index, listed in set order.
func TestQuorum(t *testing.T) {
	vs := &ValidatorSet{Validators: []Validator{{Power: 5}, {Power: 30}, {Power: 20}, {Power: 20}, {Power: 25}}}
	for _, c := range []struct {
		participants, want []int
	}{
		// 100 in all: 30 + 25 + 20 (index 2, not 3) = 75 > 66.7.
		{[]int{0, 1, 2, 3, 4}, []int{1, 2, 4}},
		{[]int{4, 3, 1, 0}, []int{1, 3, 4}},
		// 30 + 20 + 20 = 70 needs all three.
		{[]int{3, 2, 1}, []int{1, 2, 3}},
		// 25 + 20 + 20 + 5 = 70 without the strongest.
		{[]int{0, 2, 3, 4}, []int{0, 2, 3, 4}},
		// 30 + 20 + 5 = 55 falls short.
		{[]int{0, 1, 2}, nil},
	} {
		if got := vs.Quorum(c.participants); !reflect.DeepEqual(got, c.want) {
			t.Errorf("Quorum(%v) = %v, want %v", c.participants, got, c.want)
		}
	}
}

func TestUpdateRejectsForeignValidatorSet(t *testing.T) {
	c := newTestChain(t, 4)
	client := newTestClient(t, c)
	evil := newNamedTestChain(t, "tm-evil", 4)
	evil.chainID = c.chainID
	evil.height = c.height
	evil.now = c.now
	// A header signed by a completely different validator set must fail
	// the 1/3 trusted-overlap rule even though it is internally valid.
	h := evil.header(cryptoutil.ZeroHash)
	u := evil.update(h, 4)
	if err := client.UpdateVerified(u, c.now); !errors.Is(err, ErrNoTrustOverlap) {
		t.Fatalf("err = %v, want ErrNoTrustOverlap", err)
	}
}

func TestUpdateSkipsHeights(t *testing.T) {
	c := newTestChain(t, 4)
	client := newTestClient(t, c)
	// Skip ahead: produce several headers, only submit the last.
	c.header(cryptoutil.ZeroHash)
	c.header(cryptoutil.ZeroHash)
	h := c.header(cryptoutil.HashBytes([]byte("skip")))
	u := c.update(h, 4)
	if err := client.UpdateVerified(u, c.now); err != nil {
		t.Fatal(err)
	}
	if client.LatestHeight() != ibc.Height(h.Height) {
		t.Fatalf("latest = %d, want %d", client.LatestHeight(), h.Height)
	}
}

func TestRateLimit(t *testing.T) {
	c := newTestChain(t, 4)
	anchor := c.header(cryptoutil.ZeroHash)
	client, err := NewClient(c.chainID, anchor, c.valset, WithRateLimit(2, time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	now := c.now
	for i := 0; i < 2; i++ {
		h := c.header(cryptoutil.ZeroHash)
		if err := client.UpdateVerified(c.update(h, 4), now); err != nil {
			t.Fatal(err)
		}
	}
	h := c.header(cryptoutil.ZeroHash)
	if err := client.UpdateVerified(c.update(h, 4), now.Add(time.Second)); !errors.Is(err, ErrRateLimited) {
		t.Fatalf("err = %v, want ErrRateLimited", err)
	}
	// A new window admits updates again.
	if err := client.UpdateVerified(c.update(h, 4), now.Add(2*time.Minute)); err != nil {
		t.Fatal(err)
	}
}

func TestUpdatePresignedUsesChecker(t *testing.T) {
	c := newTestChain(t, 4)
	client := newTestClient(t, c)
	h := c.header(cryptoutil.ZeroHash)
	u := c.update(h, 4)
	// Blank out the signatures: the runtime checker vouches instead.
	for i := range u.Commit {
		u.Commit[i].Signature = cryptoutil.Signature{}
	}
	verified := map[cryptoutil.PubKey]bool{}
	for _, k := range c.keys {
		verified[k.Public()] = true
	}
	check := func(pub cryptoutil.PubKey, _ cryptoutil.Hash) bool { return verified[pub] }
	if err := client.UpdatePresigned(u, c.now, check); err != nil {
		t.Fatal(err)
	}
	// A checker that refuses must fail the update.
	h2 := c.header(cryptoutil.ZeroHash)
	u2 := c.update(h2, 4)
	if err := client.UpdatePresigned(u2, c.now, func(cryptoutil.PubKey, cryptoutil.Hash) bool { return false }); err == nil {
		t.Fatal("refusing checker accepted")
	}
}

func TestUpdateMarshalRoundTrip(t *testing.T) {
	c := newTestChain(t, 7)
	h := c.header(cryptoutil.HashBytes([]byte("rt")))
	u := c.update(h, 6)
	data := u.Marshal()
	got, err := UnmarshalUpdate(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Header.Hash() != h.Hash() {
		t.Fatal("header hash changed")
	}
	if len(got.Commit) != 6 || got.ValSet.Hash() != c.valset.Hash() {
		t.Fatal("commit or valset lost")
	}
	if _, err := UnmarshalUpdate(append(data, 1)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
	if _, err := UnmarshalUpdate(data[:len(data)-3]); err == nil {
		t.Fatal("truncated update accepted")
	}
}

func TestClientStateRoundTrip(t *testing.T) {
	c := newTestChain(t, 4)
	client := newTestClient(t, c)
	chainID, latest, trusting, err := DecodeClientState(client.StateBytes())
	if err != nil {
		t.Fatal(err)
	}
	if chainID != c.chainID || latest != client.LatestHeight() || trusting <= 0 {
		t.Fatalf("decoded state: %q %d %v", chainID, latest, trusting)
	}
}

func TestValidatorSetRejectsBadInput(t *testing.T) {
	if _, err := NewValidatorSet(nil); err == nil {
		t.Fatal("empty set accepted")
	}
	k := cryptoutil.GenerateKey("dup-tm").Public()
	if _, err := NewValidatorSet([]Validator{{PubKey: k, Power: 1}, {PubKey: k, Power: 2}}); err == nil {
		t.Fatal("duplicate validator accepted")
	}
}

func TestUpdateSizeScalesWithValidators(t *testing.T) {
	// The serialized update size drives the chunked-transaction count of
	// Fig. 4: it must grow linearly with the validator count.
	small := newTestChain(t, 10)
	large := newTestChain(t, 100)
	hs := small.header(cryptoutil.ZeroHash)
	hl := large.header(cryptoutil.ZeroHash)
	us := small.update(hs, 10).Marshal()
	ul := large.update(hl, 100).Marshal()
	if len(ul) < 8*len(us) {
		t.Fatalf("update sizes: %d (10 vals) vs %d (100 vals); expected ~10x growth", len(us), len(ul))
	}
}

// TestUpdateVerifiedAllocsFlatInSigners pins the batch's one digest array:
// verifying a 24-signature commit allocates no more than a 4-signature one.
// The shared cache is warmed first, so its own insertions do not count.
func TestUpdateVerifiedAllocsFlatInSigners(t *testing.T) {
	allocs := func(n int) float64 {
		const runs = 20
		c := newNamedTestChain(t, "tm-allocs", n)
		anchor := c.header(cryptoutil.ZeroHash)
		updates := make([]*Update, runs+1) // AllocsPerRun adds a warm-up run
		for i := range updates {
			updates[i] = c.update(c.header(cryptoutil.HashUint64('r', uint64(i))), n)
		}
		newClient := func() *Client {
			client, err := NewClient(c.chainID, anchor, c.valset)
			if err != nil {
				t.Fatal(err)
			}
			return client
		}
		warm := newClient()
		for _, u := range updates {
			if err := warm.UpdateVerified(u, c.now); err != nil {
				t.Fatal(err)
			}
		}
		client, next := newClient(), 0
		return testing.AllocsPerRun(runs, func() {
			if err := client.UpdateVerified(updates[next], c.now); err != nil {
				t.Fatal(err)
			}
			next++
		})
	}
	small, large := allocs(4), allocs(24)
	if large > small {
		t.Fatalf("UpdateVerified: %.0f allocations for 24 signatures, %.0f for 4; want no growth", large, small)
	}
}
