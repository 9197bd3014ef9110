package validator

import (
	"testing"
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/fees"
	"repro/internal/guest"
	"repro/internal/guestblock"
	"repro/internal/host"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// valEnv wires a contract, scheduler-driven slots, and validator daemons.
type valEnv struct {
	t        *testing.T
	sched    *sim.Scheduler
	chain    *host.Chain
	contract *guest.Contract
	net      *netsim.Network
	keys     []*cryptoutil.PrivKey
	daemons  []*Validator
	payer    cryptoutil.PubKey
	ticks    int
}

func newValEnv(t *testing.T, n int, latency sim.Dist) *valEnv {
	t.Helper()
	sched := sim.NewScheduler(time.Date(2024, 9, 1, 0, 0, 0, 0, time.UTC))
	chain := host.NewChain(sched.Clock())
	payer := cryptoutil.GenerateKey("val-env-payer").Public()
	chain.Fund(payer, 1_000_000*host.LamportsPerSOL)

	e := &valEnv{t: t, sched: sched, chain: chain, payer: payer}
	var genesis []guestblock.Validator
	for i := 0; i < n; i++ {
		k := cryptoutil.GenerateKeyIndexed("val-env", i)
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
	// A zero-value network is lossless and synchronous: the daemons run as
	// deployed, on their endpoints, and nothing is drawn or delayed.
	net := netsim.New(sched, netsim.Config{})
	e.net = net
	hostEP := net.Node(netsim.HostNode, nil, netsim.HostFrontEnd(chain))
	for i := 0; i < n; i++ {
		v := New(e.keys[i], Behaviour{
			Active:  true,
			Latency: latency,
			Policy:  fees.Policy{Name: "t", PriorityFee: 1_000},
		}, chain, contract, sched, net, i, WithSeed(int64(i)))
		v.Activate()
		e.daemons = append(e.daemons, v)
	}
	// Drive slots every 400ms and notify the daemons of each block.
	sched.Every(host.SlotDuration, func() bool {
		chain.ProduceBlock()
		for i := range e.daemons {
			hostEP.Send(netsim.ValidatorNode(i), netsim.KindHostBlock, nil)
		}
		return true
	})
	return e
}

// generateBlock mints a guest block via a crank tx.
func (e *valEnv) generateBlock() {
	e.t.Helper()
	st, err := e.contract.State(e.chain)
	if err != nil {
		e.t.Fatal(err)
	}
	e.ticks++
	if err := st.Store.Set("tick", []byte{byte(e.ticks)}); err != nil {
		e.t.Fatal(err)
	}
	crank := guest.NewTxBuilder(e.contract, e.payer)
	if err := e.chain.Submit(crank.GenerateBlockTx()); err != nil {
		e.t.Fatal(err)
	}
}

func (e *valEnv) head() *guest.BlockEntry {
	e.t.Helper()
	st, err := e.contract.State(e.chain)
	if err != nil {
		e.t.Fatal(err)
	}
	return st.Head()
}

func TestValidatorsSignAndFinalise(t *testing.T) {
	e := newValEnv(t, 4, sim.Constant(time.Second))
	e.generateBlock()
	e.sched.RunFor(10 * time.Second)
	head := e.head()
	if head.Block.Height != 2 {
		t.Fatalf("height = %d", head.Block.Height)
	}
	if !head.Finalised {
		t.Fatal("head not finalised")
	}
	if len(head.Signatures) != 4 {
		t.Fatalf("signatures = %d, want all 4 (validators sign even after quorum)", len(head.Signatures))
	}
	for _, v := range e.daemons {
		if v.SignCount() != 1 {
			t.Fatalf("daemon signed %d times", v.SignCount())
		}
		if v.Records[0].Cost == 0 {
			t.Fatal("cost not recorded")
		}
		if v.Records[0].Latency <= 0 {
			t.Fatal("latency not recorded")
		}
	}
}

func TestStoppedValidatorRecovers(t *testing.T) {
	// With three equal stakes of 100, the quorum is 201: two signers
	// reach only 200, so all three validators are required.
	// The third validator's node crashes: it hears of no host block and
	// signs nothing.
	e := newValEnv(t, 3, sim.Constant(500*time.Millisecond))
	e.net.Crash(netsim.ValidatorNode(2))
	e.generateBlock()
	e.sched.RunFor(10 * time.Second)
	if e.head().Finalised {
		t.Fatal("finalised without the stopped validator")
	}
	// The node comes back; its next wake-up pulls the blocks it missed and
	// the recovery path signs the head.
	e.net.Heal(netsim.ValidatorNode(2))
	e.sched.RunFor(10 * time.Second)
	if !e.head().Finalised {
		t.Fatal("recovery signing did not finalise the head")
	}
}

func TestInactiveValidatorNeverSigns(t *testing.T) {
	e := newValEnv(t, 4, sim.Constant(time.Second))
	e.daemons[3].Behaviour.Active = false
	e.generateBlock()
	e.sched.RunFor(10 * time.Second)
	if !e.head().Finalised {
		t.Fatal("3 of 4 should finalise")
	}
	if e.daemons[3].SignCount() != 0 {
		t.Fatal("inactive daemon signed")
	}
}

func TestLatencyQuantisedToSlots(t *testing.T) {
	e := newValEnv(t, 4, sim.Constant(3*time.Second))
	e.generateBlock()
	e.sched.RunFor(10 * time.Second)
	for _, v := range e.daemons {
		lat := v.Records[0].Latency
		if lat%host.SlotDuration != 0 {
			t.Fatalf("latency %v not quantised to %v slots", lat, host.SlotDuration)
		}
		if lat < 3*time.Second || lat > 5*time.Second {
			t.Fatalf("latency %v out of expected range", lat)
		}
	}
}

func TestForgedSignatureHelper(t *testing.T) {
	e := newValEnv(t, 2, sim.Constant(time.Second))
	forged := cryptoutil.HashBytes([]byte("bad block"))
	sig := e.daemons[0].PublishForgedSignature(forged)
	payload := guestblock.SigningPayloadForHash(forged)
	if !cryptoutil.Verify(sig.PubKey, payload[:], sig.Signature) {
		t.Fatal("forged signature does not verify (fisherman could not use it)")
	}
}
