package relayer

import (
	"testing"
	"time"

	"repro/internal/counterparty"
	"repro/internal/cryptoutil"
	"repro/internal/guest"
	"repro/internal/guestblock"
	"repro/internal/host"
	"repro/internal/ibc"
)

// bootEnv deploys a guest contract and counterparty for bootstrap tests.
type bootEnv struct {
	clock    *host.ManualClock
	chain    *host.Chain
	contract *guest.Contract
	cp       *counterparty.Chain
	keys     []*cryptoutil.PrivKey
}

func newBootEnv(t *testing.T) *bootEnv {
	return newBootEnvWithCP(t, 10)
}

func newBootEnvWithCP(t *testing.T, cpValidators int) *bootEnv {
	t.Helper()
	clock := host.NewManualClock(time.Date(2024, 9, 1, 0, 0, 0, 0, time.UTC))
	chain := host.NewChain(clock)
	payer := cryptoutil.GenerateKey("boot-payer").Public()
	chain.Fund(payer, 1_000_000*host.LamportsPerSOL)

	e := &bootEnv{clock: clock, chain: chain}
	var genesis []guestblock.Validator
	for i := 0; i < 3; i++ {
		k := cryptoutil.GenerateKeyIndexed("boot-val", i)
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

	cfg := counterparty.DefaultConfig()
	cfg.NumValidators = cpValidators
	cp, err := counterparty.New(cfg, clock)
	if err != nil {
		t.Fatal(err)
	}
	e.cp = cp

	st, err := contract.State(chain)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Handler.BindPort("transfer", nopModule{}); err != nil {
		t.Fatal(err)
	}
	if err := cp.Handler().BindPort("transfer", nopModule{}); err != nil {
		t.Fatal(err)
	}
	return e
}

type nopModule struct{}

func (nopModule) OnChanOpen(ibc.PortID, ibc.ChannelID, string) error { return nil }
func (nopModule) OnRecvPacket(ibc.Packet) ([]byte, error)            { return []byte("ok"), nil }
func (nopModule) OnAcknowledgementPacket(ibc.Packet, []byte) error   { return nil }
func (nopModule) OnTimeoutPacket(ibc.Packet) error                   { return nil }

func TestBootstrapOpensEverything(t *testing.T) {
	e := newBootEnv(t)
	b := &Bootstrap{
		HostChain: e.chain, Contract: e.contract, CP: e.cp,
		ValidatorKeys: e.keys, GuestPort: "transfer", CPPort: "transfer",
	}
	res, err := b.Run()
	if err != nil {
		t.Fatal(err)
	}
	st, err := e.contract.State(e.chain)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := st.Handler.Connection(res.GuestConnection)
	if err != nil {
		t.Fatal(err)
	}
	if conn.State != ibc.StateOpen {
		t.Fatalf("guest connection %v", conn.State)
	}
	ch, err := st.Handler.Channel("transfer", res.GuestChannel)
	if err != nil {
		t.Fatal(err)
	}
	if ch.State != ibc.StateOpen {
		t.Fatalf("guest channel %v", ch.State)
	}
	cpConn, err := e.cp.Handler().Connection(res.CPConnection)
	if err != nil {
		t.Fatal(err)
	}
	if cpConn.State != ibc.StateOpen {
		t.Fatalf("cp connection %v", cpConn.State)
	}
	cpCh, err := e.cp.Handler().Channel("transfer", res.CPChannel)
	if err != nil {
		t.Fatal(err)
	}
	if cpCh.State != ibc.StateOpen {
		t.Fatalf("cp channel %v", cpCh.State)
	}

	// The handshake minted and finalised several guest blocks.
	if st.Height() < 4 {
		t.Fatalf("guest height after handshake = %d", st.Height())
	}
	// Both light clients advanced.
	tmc, err := st.Handler.Client(res.GuestClientID)
	if err != nil {
		t.Fatal(err)
	}
	if tmc.LatestHeight() < 2 {
		t.Fatal("tendermint client never updated")
	}
	glc, err := e.cp.Handler().Client(res.GuestOnCPClientID)
	if err != nil {
		t.Fatal(err)
	}
	if glc.LatestHeight() < 2 {
		t.Fatal("guest client never updated")
	}
}

func TestBootstrapReuseOpensSecondChannel(t *testing.T) {
	e := newBootEnv(t)
	b := &Bootstrap{
		HostChain: e.chain, Contract: e.contract, CP: e.cp,
		ValidatorKeys: e.keys, GuestPort: "transfer", CPPort: "transfer",
	}
	first, err := b.Run()
	if err != nil {
		t.Fatal(err)
	}
	st, err := e.contract.State(e.chain)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Handler.BindPort("gov", nopModule{}); err != nil {
		t.Fatal(err)
	}
	if err := e.cp.Handler().BindPort("gov", nopModule{}); err != nil {
		t.Fatal(err)
	}
	second, err := (&Bootstrap{
		HostChain: e.chain, Contract: e.contract, CP: e.cp,
		ValidatorKeys: e.keys, GuestPort: "gov", CPPort: "gov",
		Version: "gov-1", Reuse: first,
	}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if second.GuestChannel == first.GuestChannel {
		t.Fatal("second channel reused the first id")
	}
	if second.GuestConnection != first.GuestConnection {
		t.Fatal("second channel did not reuse the connection")
	}
	ch, err := st.Handler.Channel("gov", second.GuestChannel)
	if err != nil {
		t.Fatal(err)
	}
	if ch.State != ibc.StateOpen || ch.Version != "gov-1" {
		t.Fatalf("gov channel: %+v", ch)
	}
}

func TestBootstrapFailsWithoutQuorumKeys(t *testing.T) {
	e := newBootEnv(t)
	b := &Bootstrap{
		HostChain: e.chain, Contract: e.contract, CP: e.cp,
		ValidatorKeys: e.keys[:1], // 1 of 3 equal stakes cannot finalise
		GuestPort:     "transfer", CPPort: "transfer",
	}
	if _, err := b.Run(); err == nil {
		t.Fatal("bootstrap succeeded without a finalisation quorum")
	}
}

// TestPairBootstrapReuseOpensSecondChannel opens a second channel between
// two cosmos chains over the first handshake's connection and clients.
func TestPairBootstrapReuseOpensSecondChannel(t *testing.T) {
	clock := host.NewManualClock(time.Date(2024, 9, 1, 0, 0, 0, 0, time.UTC))
	var chains [2]*counterparty.Chain
	for i, id := range []string{"chain-a", "chain-b"} {
		cfg := counterparty.DefaultConfig()
		cfg.ChainID, cfg.NumValidators = id, 8
		c, err := counterparty.New(cfg, clock)
		if err != nil {
			t.Fatal(err)
		}
		for _, port := range []ibc.PortID{"transfer", "gov"} {
			if err := c.Handler().BindPort(port, nopModule{}); err != nil {
				t.Fatal(err)
			}
		}
		chains[i] = c
	}
	a, b := chains[0], chains[1]
	first, err := (&PairBootstrap{A: a, B: b, PortA: "transfer", PortB: "transfer"}).Run()
	if err != nil {
		t.Fatal(err)
	}
	second, err := (&PairBootstrap{A: a, B: b, PortA: "gov", PortB: "gov", Version: "gov-1", Reuse: first}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if second.ChanA == first.ChanA || second.ChanB == first.ChanB {
		t.Fatal("second channel reused the first id")
	}
	if second.ConnA != first.ConnA || second.ConnB != first.ConnB || second.ClientBOnA != first.ClientBOnA {
		t.Fatalf("second channel did not reuse the connection: %+v vs %+v", second, first)
	}
	for _, end := range []struct {
		chain *counterparty.Chain
		id    ibc.ChannelID
	}{{a, second.ChanA}, {b, second.ChanB}} {
		ch, err := end.chain.Handler().Channel("gov", end.id)
		if err != nil {
			t.Fatal(err)
		}
		if ch.State != ibc.StateOpen || ch.Version != "gov-1" {
			t.Fatalf("gov channel on %s: %+v", end.chain.ChainID(), ch)
		}
	}
	// No second client pair was created.
	if _, err := a.Handler().Client("tm-chain-b"); err != nil {
		t.Fatal(err)
	}
	if conn, err := b.Handler().Connection(second.ConnB); err != nil || conn.State != ibc.StateOpen {
		t.Fatalf("connection on b: %+v, %v", conn, err)
	}
}
