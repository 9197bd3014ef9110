package fisherman

import (
	"testing"
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/guest"
	"repro/internal/guestblock"
	"repro/internal/host"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// fishEnv sets up a contract with canonical blocks to test against.
type fishEnv struct {
	t        *testing.T
	clock    *host.ManualClock
	chain    *host.Chain
	contract *guest.Contract
	keys     []*cryptoutil.PrivKey
	gossip   *Gossip
	fish     *Fisherman
}

func newFishEnv(t *testing.T) *fishEnv {
	t.Helper()
	clock := host.NewManualClock(time.Date(2024, 9, 1, 0, 0, 0, 0, time.UTC))
	chain := host.NewChain(clock)
	payer := cryptoutil.GenerateKey("fish-payer").Public()
	chain.Fund(payer, 1_000_000*host.LamportsPerSOL)

	e := &fishEnv{t: t, clock: clock, chain: chain, gossip: &Gossip{}}
	var genesis []guestblock.Validator
	for i := 0; i < 4; i++ {
		k := cryptoutil.GenerateKeyIndexed("fish-val", i)
		e.keys = append(e.keys, k)
		chain.Fund(k.Public(), 200*host.LamportsPerSOL)
		genesis = append(genesis, guestblock.Validator{PubKey: k.Public(), Stake: uint64(100 * host.LamportsPerSOL)})
	}
	contract, _, err := guest.Deploy(chain, guest.Config{
		Params: guest.DefaultParams(), Payer: payer, GenesisValidators: genesis,
	})
	if err != nil {
		t.Fatal(err)
	}
	e.contract = contract
	// A zero-value network is lossless and synchronous: evidence reaches the
	// host's mempool before Poll returns, and the scheduler never runs.
	net := netsim.New(sim.NewScheduler(clock.Now()), netsim.Config{})
	net.Node(netsim.HostNode, nil, netsim.HostFrontEnd(chain))
	e.fish = New("test", chain, contract, e.gossip, net, 0)
	chain.Fund(e.fish.Key().Public(), 10*host.LamportsPerSOL)

	// Mint one canonical block at height 2.
	st, err := contract.State(chain)
	if err != nil {
		t.Fatal(err)
	}
	st.BeginDirect(clock.Now(), uint64(chain.Slot()))
	if err := st.Store.Set("canon", []byte("x")); err != nil {
		t.Fatal(err)
	}
	entry, err := st.DirectGenerateBlock()
	if err != nil {
		t.Fatal(err)
	}
	if err := st.DirectFinalise(entry, e.keys); err != nil {
		t.Fatal(err)
	}
	return e
}

func (e *fishEnv) step() *host.Block {
	e.clock.Advance(host.SlotDuration)
	return e.chain.ProduceBlock()
}

func (e *fishEnv) pollAndExecute() {
	e.t.Helper()
	if err := e.fish.Poll(); err != nil {
		e.t.Fatal(err)
	}
	b := e.step()
	for _, r := range b.Results {
		if r.Err != nil {
			e.t.Fatalf("evidence tx failed: %v", r.Err)
		}
	}
}

func (e *fishEnv) slashed(pub cryptoutil.PubKey) bool {
	st, err := e.contract.State(e.chain)
	if err != nil {
		e.t.Fatal(err)
	}
	return st.Slashed[pub]
}

func sight(k *cryptoutil.PrivKey, height uint64, hash cryptoutil.Hash) Observation {
	return Observation{
		Height:    height,
		BlockHash: hash,
		PubKey:    k.Public(),
		Signature: k.SignHash(guestblock.SigningPayloadForHash(hash)),
	}
}

func TestWrongForkDetected(t *testing.T) {
	e := newFishEnv(t)
	forged := cryptoutil.HashBytes([]byte("forked"))
	e.gossip.Publish(sight(e.keys[0], 2, forged))
	e.pollAndExecute()
	if !e.slashed(e.keys[0].Public()) {
		t.Fatal("wrong-fork offender not slashed")
	}
	if e.fish.Submitted != 1 {
		t.Fatalf("submitted = %d", e.fish.Submitted)
	}
}

func TestFutureHeightDetected(t *testing.T) {
	e := newFishEnv(t)
	forged := cryptoutil.HashBytes([]byte("future"))
	e.gossip.Publish(sight(e.keys[1], 500, forged))
	e.pollAndExecute()
	if !e.slashed(e.keys[1].Public()) {
		t.Fatal("future-height offender not slashed")
	}
}

func TestCanonicalSignatureIgnored(t *testing.T) {
	e := newFishEnv(t)
	st, err := e.contract.State(e.chain)
	if err != nil {
		t.Fatal(err)
	}
	entry, err := st.Entry(2)
	if err != nil {
		t.Fatal(err)
	}
	// A signature over the canonical block is honest behaviour.
	e.gossip.Publish(sight(e.keys[0], 2, entry.Block.Hash()))
	e.pollAndExecute()
	if e.fish.Submitted != 0 {
		t.Fatal("fisherman reported an honest signature")
	}
	if e.slashed(e.keys[0].Public()) {
		t.Fatal("honest validator slashed")
	}
}

func TestForgedObservationIgnored(t *testing.T) {
	e := newFishEnv(t)
	// A gossip entry whose signature does not verify is noise someone
	// injected to frame a validator; the fisherman must not act on it.
	forged := cryptoutil.HashBytes([]byte("frame-job"))
	framer := cryptoutil.GenerateKey("framer")
	e.gossip.Publish(Observation{
		Height:    2,
		BlockHash: forged,
		PubKey:    e.keys[2].Public(), // victim
		Signature: framer.SignHash(guestblock.SigningPayloadForHash(forged)),
	})
	e.pollAndExecute()
	if e.fish.Submitted != 0 {
		t.Fatal("fisherman acted on an unverifiable sighting")
	}
	if e.slashed(e.keys[2].Public()) {
		t.Fatal("framed validator slashed")
	}
}

func TestGossipCursorNoReprocessing(t *testing.T) {
	e := newFishEnv(t)
	forged := cryptoutil.HashBytes([]byte("once"))
	e.gossip.Publish(sight(e.keys[0], 2, forged))
	e.pollAndExecute()
	if e.fish.Submitted != 1 {
		t.Fatalf("submitted = %d", e.fish.Submitted)
	}
	// Polling again with no new sightings does nothing.
	e.pollAndExecute()
	if e.fish.Submitted != 1 {
		t.Fatalf("resubmitted old evidence: %d", e.fish.Submitted)
	}
}
