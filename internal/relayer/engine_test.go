package relayer

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/counterparty"
	"repro/internal/guest"
	"repro/internal/guestblock"
	"repro/internal/host"
	"repro/internal/ibc"
	"repro/internal/lightclient/tendermint"
	"repro/internal/netsim"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/transfer"
	"repro/internal/wire"
)

// linkKind selects what the engine under test relays between.
type linkKind string

const (
	// guestLink is the guest chain and a cosmos chain; the "home" end is
	// the guest.
	guestLink linkKind = "guest-cosmos"
	// wideGuestLink is guestLink with the counterparty's default 115
	// validators, whose set fills whole chunk transactions of an update.
	wideGuestLink linkKind = "guest-cosmos-115"
	// cosmosLink is two cosmos chains; the "home" end is chain A.
	cosmosLink linkKind = "cosmos-cosmos"
	// orderedLink is cosmosLink with an ordered bank channel.
	orderedLink linkKind = "cosmos-ordered"
)

// bankPort carries the transfer apps the scenarios move tokens through
// (the guest deployment's "transfer" port holds bootEnv's nopModule).
const bankPort ibc.PortID = "bank"

// linkEnv runs relayer engines on one link over a simulated network: two
// chains ticking on the scheduler, a transfer app on each side of a bank
// channel, one idempotent front-end per chain, and block notifications
// fanned out to every engine. Scenarios send from the home end to the
// away end (always a cosmos chain) and back.
type linkEnv struct {
	*bootEnv // the guest deployment; nil on a cosmos link
	sched    *sim.Scheduler
	net      *netsim.Network
	tel      *telemetry.Telemetry
	// nodes are the chain front-ends' endpoints, which wake the engines.
	nodes map[netsim.NodeID]*netsim.Endpoint
	// res is the guest link's "transfer" channel (nopModule on both ends).
	res *Result

	away             *counterparty.Chain
	homeApp, awayApp *transfer.App
	homeCh, awayCh   ibc.ChannelID
	// sendHome submits a bank packet from the home end; homeCommitted
	// reports whether the home chain still commits a packet.
	sendHome      func(data []byte, timeout time.Time)
	homeCommitted func(p *ibc.Packet) bool

	cfg      Config
	relayer  *Relayer // the first engine
	relayers []*Relayer

	// txs is every transaction each chain front-end was called with, in
	// arrival order (a replay appears again). intercept, when set, sees a
	// transaction before the front-end does and may substitute its messages
	// or cut a link to lose the reply.
	txs       map[netsim.NodeID][]netsim.MsgTx
	intercept func(node netsim.NodeID, tx *netsim.MsgTx)
	// hostLabels labels every transaction the guest link's host front-end
	// was called with, in arrival order; hostIntercept, when set, sees each
	// first and returns the transaction to submit in its place. refused
	// counts the transactions refuse had the host refuse.
	hostLabels    []string
	hostIntercept func(tx *host.Transaction) *host.Transaction
	refused       int
	// hostBlocks reads every block the guest link's host produces, for
	// tests that inspect them after the run (nil on a cosmos link).
	hostBlocks *host.Reader
}

// newLinkEnv builds the link and starts its first engine, whose config
// tune may adjust.
func newLinkEnv(t *testing.T, kind linkKind, netCfg netsim.Config, tune ...func(*Config)) *linkEnv {
	t.Helper()
	e := &linkEnv{tel: telemetry.New(), homeApp: transfer.New(bankPort), awayApp: transfer.New(bankPort), txs: map[netsim.NodeID][]netsim.MsgTx{}}
	newCosmos := func(id string, seed int64, clock host.Clock) *counterparty.Chain {
		cfg := counterparty.DefaultConfig()
		cfg.ChainID, cfg.NumValidators, cfg.Seed = id, 8, seed
		c, err := counterparty.New(cfg, clock)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	bank := func(h *ibc.Handler, app *transfer.App) {
		if err := h.BindPort(bankPort, app); err != nil {
			t.Fatal(err)
		}
	}
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}

	var home EndConfig
	if kind == guestLink || kind == wideGuestLink {
		if kind == wideGuestLink {
			e.bootEnv = newBootEnvWithCP(t, counterparty.DefaultConfig().NumValidators)
		} else {
			e.bootEnv = newBootEnv(t)
		}
		e.sched = sim.NewScheduler(e.clock.Now())
		e.hostBlocks = e.chain.NewReader()
		e.away = e.cp
		st, err := e.contract.State(e.chain)
		must(err)
		bank(st.Handler, e.homeApp)
		bank(e.away.Handler(), e.awayApp)
		boot := Bootstrap{HostChain: e.chain, Contract: e.contract, CP: e.cp, ValidatorKeys: e.keys, GuestPort: "transfer", CPPort: "transfer"}
		e.res, err = boot.Run()
		must(err)
		boot.GuestPort, boot.CPPort, boot.Reuse = bankPort, bankPort, e.res
		res, err := boot.Run()
		must(err)
		e.homeCh, e.awayCh = res.GuestChannel, res.CPChannel
		home = EndConfig{Host: e.chain, Contract: e.contract, Node: netsim.HostNode, ClientOfPeer: res.GuestClientID}
		e.cfg = DefaultConfig()
		e.cfg.A = EndConfig{Chain: e.away, Node: netsim.CPNode, ClientOfPeer: res.GuestOnCPClientID}
		e.cfg.Channels = []routing.Link{
			{PortA: "transfer", ChannelA: e.res.CPChannel, PortB: "transfer", ChannelB: e.res.GuestChannel},
			{PortA: bankPort, ChannelA: e.awayCh, PortB: bankPort, ChannelB: e.homeCh},
		}
		sender := e.keys[1].Public()
		e.sendHome = func(data []byte, timeout time.Time) {
			must(e.chain.Submit(guest.NewTxBuilder(e.contract, sender).SendPacketTx(&guest.SendPacketArgs{
				Sender: sender, Port: bankPort, Channel: e.homeCh, Data: data, TimeoutTimestamp: timeout,
			})))
		}
		e.homeCommitted = st.Handler.HasCommitment
	} else {
		e.sched = sim.NewScheduler(time.Date(2024, 9, 1, 0, 0, 0, 0, time.UTC))
		a := newCosmos("chain-a", 1, e.sched.Clock())
		e.away = newCosmos("chain-b", 2, e.sched.Clock())
		bank(a.Handler(), e.homeApp)
		bank(e.away.Handler(), e.awayApp)
		boot := &PairBootstrap{A: a, B: e.away, PortA: bankPort, PortB: bankPort}
		if kind == orderedLink {
			boot.Ordering = ibc.Ordered
		}
		res, err := boot.Run()
		must(err)
		e.homeCh, e.awayCh = res.ChanA, res.ChanB
		home = EndConfig{Chain: a, Node: netsim.ChainNode("a"), ClientOfPeer: res.ClientBOnA}
		e.cfg = Config{Seed: 7, StrictRoutes: true, CPLatency: DefaultConfig().CPLatency, NodeID: netsim.LinkRelayerNode("a-b")}
		e.cfg.A = EndConfig{Chain: e.away, Node: netsim.ChainNode("b"), ClientOfPeer: res.ClientAOnB}
		e.cfg.Channels = []routing.Link{{PortA: bankPort, ChannelA: e.awayCh, PortB: bankPort, ChannelB: e.homeCh}}
		e.sendHome = func(data []byte, timeout time.Time) {
			_, err := a.SendPacket(bankPort, e.homeCh, data, 0, timeout)
			must(err)
		}
		e.homeCommitted = a.Handler().HasCommitment
	}
	// The away chain is end A and the home chain end B — the orientation
	// of the paper's deployment, where "cp" sorts before "guest".
	e.cfg.B = home
	e.cfg.MetricsNamespace = "relayer"
	for _, f := range tune {
		f(&e.cfg)
	}

	e.net = netsim.New(e.sched, netCfg)
	e.net.ScheduleFaults(e.sched.Now())
	e.nodes = map[netsim.NodeID]*netsim.Endpoint{
		e.cfg.A.Node: e.net.Node(e.cfg.A.Node, nil, e.frontEnd(e.cfg.A.Node, e.away)),
	}
	if home.Chain != nil {
		e.nodes[home.Node] = e.net.Node(home.Node, nil, e.frontEnd(home.Node, home.Chain))
	} else {
		serve := netsim.HostFrontEnd(e.chain)
		e.nodes[home.Node] = e.net.Node(home.Node, nil, func(from netsim.NodeID, kind string, payload any) (any, error) {
			m := payload.(netsim.MsgSubmitTx)
			m.Txs = slices.Clone(m.Txs)
			for i, tx := range m.Txs {
				e.hostLabels = append(e.hostLabels, tx.Label)
				if e.hostIntercept != nil {
					m.Txs[i] = e.hostIntercept(tx)
				}
			}
			return serve(from, kind, m)
		})
	}
	e.relayer = e.addRelayer(t, e.cfg)
	if home.Chain != nil {
		e.cosmosTicks(home.Chain, home.Node)
	} else {
		e.guestTicks()
	}
	e.cosmosTicks(e.away, e.cfg.A.Node)
	return e
}

// addRelayer starts one more engine on the link.
func (e *linkEnv) addRelayer(t *testing.T, cfg Config) *Relayer {
	t.Helper()
	r, err := New(cfg, e.sched, e.net, WithTelemetry(e.tel))
	if err != nil {
		t.Fatal(err)
	}
	if e.bootEnv != nil {
		e.chain.Fund(r.Key().Public(), 1_000*host.LamportsPerSOL)
	}
	e.relayers = append(e.relayers, r)
	return r
}

// notify tells every engine that the chain behind node produced a block.
func (e *linkEnv) notify(node netsim.NodeID, kind string) {
	for _, r := range e.relayers {
		e.nodes[node].Send(r.cfg.NodeID, kind, nil)
	}
}

// cosmosTicks starts a cosmos chain's block loop.
func (e *linkEnv) cosmosTicks(c *counterparty.Chain, node netsim.NodeID) {
	e.sched.Every(c.BlockInterval(), func() bool {
		if e.bootEnv != nil {
			e.clock.Set(e.sched.Now())
		}
		c.ProduceBlock()
		e.notify(node, netsim.KindCPBlock)
		return true
	})
}

// guestTicks starts the guest deployment's loops: host slots with inline
// validators — each guest block's NewBlock is answered by Sign
// transactions after a fixed delay — and the crank.
func (e *linkEnv) guestTicks() {
	st, err := e.contract.State(e.chain)
	if err != nil {
		panic(err)
	}
	signed := map[uint64]bool{}
	e.sched.Every(host.SlotDuration, func() bool {
		e.clock.Set(e.sched.Now())
		e.chain.ProduceBlock()
		e.notify(netsim.HostNode, netsim.KindHostBlock)
		head := st.Head()
		if !head.Finalised && !signed[head.Block.Height] {
			signed[head.Block.Height] = true
			block := head.Block
			e.sched.After(time.Second, func() {
				for _, k := range e.keys {
					_ = e.chain.Submit(guest.NewTxBuilder(e.contract, k.Public()).SignTx(k, block))
				}
			})
		}
		return true
	})
	crank := guest.NewTxBuilder(e.contract, e.keys[0].Public())
	e.sched.Every(time.Second, func() bool {
		if head := st.Head(); head.Finalised && head.Block.StateRoot != st.Store.Root() {
			_ = e.chain.Submit(crank.GenerateBlockTx())
		}
		return true
	})
}

// frontEnd is c's front-end behind the transaction log.
func (e *linkEnv) frontEnd(node netsim.NodeID, c *counterparty.Chain) netsim.CallHandler {
	serve := c.FrontEnd(map[counterparty.RecvKey]netsim.NodeID{})
	return func(from netsim.NodeID, kind string, payload any) (any, error) {
		if tx, ok := payload.(netsim.MsgTx); ok {
			if e.intercept != nil {
				e.intercept(node, &tx)
			}
			e.txs[node] = append(e.txs[node], tx)
			payload = tx
		}
		return serve(from, kind, payload)
	}
}

// shape summarises a transaction as its message counts by type, in the
// order update, recv, ack, timeout: "1u 12r".
func shape(tx netsim.MsgTx) string {
	var n [4]int
	for _, m := range tx.Msgs {
		switch m.(type) {
		case netsim.MsgUpdateClient:
			n[0]++
		case netsim.MsgRecvPacket:
			n[1]++
		case netsim.MsgAckPacket:
			n[2]++
		case netsim.MsgTimeoutPacket:
			n[3]++
		}
	}
	var parts []string
	for i, c := range n {
		if c > 0 {
			parts = append(parts, fmt.Sprintf("%d%c", c, "urat"[i]))
		}
	}
	return strings.Join(parts, " ")
}

func shapes(txs []netsim.MsgTx) []string {
	out := make([]string, len(txs))
	for i, tx := range txs {
		out[i] = shape(tx)
	}
	return out
}

// recvSeqs lists the sequences of the recv messages of txs, in order.
func recvSeqs(txs ...netsim.MsgTx) []uint64 {
	var seqs []uint64
	for _, tx := range txs {
		for _, m := range tx.Msgs {
			if r, ok := m.(netsim.MsgRecvPacket); ok {
				seqs = append(seqs, r.Packet.Sequence)
			}
		}
	}
	return seqs
}

// refuse has the host refuse, once, the first transaction match picks: the
// front-end is handed a copy without instructions, which fails Validate, so
// the submission carrying it fails as one meeting a full mempool does.
func (e *linkEnv) refuse(match func(*host.Transaction) bool) {
	prev, done := e.hostIntercept, false
	e.hostIntercept = func(tx *host.Transaction) *host.Transaction {
		if prev != nil {
			tx = prev(tx)
		}
		if done || !match(tx) {
			return tx
		}
		done = true
		e.refused++
		return &host.Transaction{FeePayer: tx.FeePayer}
	}
}

// refuseMidJob cuts the first engine off from the host once a job has
// started on lane, the next transaction it has to send carries label and
// the root pacer has nothing to send, runs then, and reports how many
// transactions the job had left. The link heals five seconds later, and the
// host refuses that transaction when the call's retry reaches it: an
// overloaded host first stops answering, then turns submissions away.
func (e *linkEnv) refuseMidJob(lane *pacer, label string, then func()) *int {
	left := new(int)
	root := e.relayer.ends[1].(*guestEnd).root
	e.sched.Every(50*time.Millisecond, func() bool {
		if len(lane.queue) == 0 || len(root.queue) > 0 {
			return true
		}
		j := lane.queue[0]
		if j.started.IsZero() || len(j.txs) == 0 || j.txs[0].Label != label {
			return true
		}
		*left = len(j.txs)
		next := j.txs[0]
		e.refuse(func(tx *host.Transaction) bool { return tx == next })
		e.net.SetLinkBoth(netsim.RelayerNode, netsim.HostNode, netsim.LinkConfig{Drop: 1})
		e.sched.After(5*time.Second, func() {
			e.net.SetLinkBoth(netsim.RelayerNode, netsim.HostNode, netsim.LinkConfig{})
		})
		then()
		return false
	})
	return left
}

// count is how many of labels equal label.
func count(labels []string, label string) int {
	n := 0
	for _, l := range labels {
		if l == label {
			n++
		}
	}
	return n
}

// loseReply cuts the link that carries node's replies to the first engine,
// for long enough to lose the one about to be sent and no retry.
func (e *linkEnv) loseReply(node netsim.NodeID) {
	e.net.SetLink(node, e.relayer.cfg.NodeID, netsim.LinkConfig{Drop: 1})
	e.sched.After(5*time.Second, func() { e.net.SetLink(node, e.relayer.cfg.NodeID, netsim.LinkConfig{}) })
}

// send moves amount TOK from alice on the home chain towards bob on the
// away chain; timeout 0 means the packet never expires.
func (e *linkEnv) send(t *testing.T, amount uint64, timeout time.Duration) {
	t.Helper()
	e.homeApp.Mint("alice", "TOK", amount)
	data := &transfer.PacketData{Denom: "TOK", Amount: amount, Sender: "alice", Receiver: "bob"}
	if err := e.homeApp.PrepareSend(e.homeCh, data); err != nil {
		t.Fatal(err)
	}
	var ts time.Time
	if timeout > 0 {
		ts = e.sched.Now().Add(timeout)
	}
	e.sendHome(data.Marshal(), ts)
}

// sendBack moves amount COIN from carol on the away chain to dave on the
// home chain; timeout 0 means the packet never expires.
func (e *linkEnv) sendBack(t *testing.T, amount uint64, timeout time.Duration) *ibc.Packet {
	t.Helper()
	e.awayApp.Mint("carol", "COIN", amount)
	data := &transfer.PacketData{Denom: "COIN", Amount: amount, Sender: "carol", Receiver: "dave"}
	if err := e.awayApp.PrepareSend(e.awayCh, data); err != nil {
		t.Fatal(err)
	}
	var ts time.Time
	if timeout > 0 {
		ts = e.sched.Now().Add(timeout)
	}
	p, err := e.away.SendPacket(bankPort, e.awayCh, data.Marshal(), 0, ts)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// scanTimeouts runs every engine's timeout scan on the deployment cadence.
func (e *linkEnv) scanTimeouts() {
	e.sched.Every(30*time.Second, func() bool {
		for _, r := range e.relayers {
			r.CheckTimeouts()
		}
		return true
	})
}

// wantTransferred checks the home→away ledger after sent tokens left
// alice: bob holds exactly delivered vouchers, the home escrow backs exactly
// those, alice was refunded the rest, and the home chain commits no packet
// any more.
func (e *linkEnv) wantTransferred(t *testing.T, sent, delivered uint64) {
	t.Helper()
	voucher := transfer.VoucherPrefix(bankPort, e.awayCh) + "TOK"
	if got := e.awayApp.Balance("bob", voucher); got != delivered {
		t.Errorf("bob holds %d vouchers, want %d (exactly-once)", got, delivered)
	}
	if got := e.homeApp.EscrowedAmount(e.homeCh, "TOK"); got != delivered {
		t.Errorf("home escrow = %d, want %d", got, delivered)
	}
	if got := e.homeApp.Balance("alice", "TOK"); got != sent-delivered {
		t.Errorf("alice holds %d, want %d (refunded exactly once)", got, sent-delivered)
	}
	for seq := uint64(1); seq <= 64; seq++ {
		if e.homeCommitted(&ibc.Packet{Sequence: seq, SourcePort: bankPort, SourceChannel: e.homeCh}) {
			t.Errorf("home chain still commits bank packet %d: never acked or timed out", seq)
		}
	}
}

func (e *linkEnv) counter(name string) uint64 {
	return e.tel.Metrics.Snapshot().Counters["relayer."+name]
}

// TestEngine runs the same scenarios on both link kinds: whatever differs
// between a guest link and a cosmos↔cosmos link is inside the ends.
func TestEngine(t *testing.T) {
	chaos := netsim.Config{
		Seed:    11,
		Default: netsim.LinkConfig{Latency: sim.Uniform{Min: 20 * time.Millisecond, Max: 200 * time.Millisecond}, Drop: 0.05, Duplicate: 0.05},
	}
	scenarios := []struct {
		name string
		only linkKind // empty: both kinds
		run  func(t *testing.T, kind linkKind)
	}{
		{"delivers and acks", "", func(t *testing.T, kind linkKind) {
			e := newLinkEnv(t, kind, netsim.Config{})
			e.send(t, 500, 0)
			back := e.sendBack(t, 70, 0)
			e.sched.RunFor(10 * time.Minute)

			e.wantTransferred(t, 500, 500)
			if got := e.homeApp.Balance("dave", transfer.VoucherPrefix(bankPort, e.homeCh)+"COIN"); got != 70 {
				t.Errorf("dave holds %d vouchers, want 70", got)
			}
			if e.away.Handler().HasCommitment(back) {
				t.Error("away chain still commits its packet: ack never relayed back")
			}
			if d, a := e.counter("delivered"), e.counter("acks"); d != 2 || a != 2 {
				t.Errorf("delivered = %d, acks = %d, want 2 and 2 (one packet each way)", d, a)
			}
			ch := "ch." + string(e.homeCh) + "."
			if n := e.counter(ch+"delivered_to_cp") + e.counter(ch+"recv_submitted"); n != 2 {
				t.Errorf("bank channel counted %d deliveries, want 2", n)
			}
			if n := len(e.relayer.traces); n != 0 {
				t.Errorf("%d traces left on a link that keeps none", n)
			}
		}},
		{"lossy network delivers exactly once", "", func(t *testing.T, kind linkKind) {
			e := newLinkEnv(t, kind, chaos)
			const n, amt = 8, 100
			for i := 0; i < n; i++ {
				e.send(t, amt, 0)
			}
			e.sched.RunFor(2 * time.Hour)
			e.wantTransferred(t, n*amt, n*amt)
		}},
		{"expired packet is timed out and refunded once", "", func(t *testing.T, kind linkKind) {
			// The engine is cut off from the away chain long enough for the
			// packet to expire undelivered; the receipt non-membership
			// proof then refunds it on the home chain.
			e := newLinkEnv(t, kind, netsim.Config{Seed: 3, Partitions: []netsim.PartitionWindow{{
				A: []netsim.NodeID{netsim.ChainNode("b"), netsim.CPNode}, B: []netsim.NodeID{netsim.LinkRelayerNode("a-b"), netsim.RelayerNode},
				Duration: 30 * time.Minute,
			}}})
			e.scanTimeouts()
			e.send(t, 250, 10*time.Minute)
			e.sched.RunFor(3 * time.Hour)

			e.wantTransferred(t, 250, 0)
			if n := e.counter("timeouts_submitted"); n != 1 {
				t.Errorf("timeouts_submitted = %d, want 1", n)
			}
		}},
		{"second engine loses the race", "", func(t *testing.T, kind linkKind) {
			e := newLinkEnv(t, kind, netsim.Config{})
			rival := e.cfg
			rival.NodeID, rival.KeyName, rival.Seed = "rival", "rival", 99
			e.addRelayer(t, rival)
			e.send(t, 40, 0)
			e.sched.RunFor(10 * time.Minute)

			e.wantTransferred(t, 40, 40)
			if lost, d, a := e.counter("lost_race"), e.counter("delivered"), e.counter("acks"); lost != 1 || d != 1 || a != 1 {
				t.Errorf("lost_race = %d, delivered = %d, acks = %d, want 1 each", lost, d, a)
			}
		}},
		{"client updates do not grow with packets behind one height", "", func(t *testing.T, kind linkKind) {
			// Cosmos ends unpaced, so every delivery lands before the next
			// block and the acks share a height too: one update per leg,
			// whatever the packet count.
			updates := func(packets int) uint64 {
				e := newLinkEnv(t, kind, netsim.Config{}, func(c *Config) {
					if c.B.Chain != nil {
						c.CPLatency = sim.Constant(0)
					}
				})
				for i := 0; i < packets; i++ {
					e.sendBack(t, 5, 0)
				}
				e.sched.RunFor(15 * time.Minute)
				if got := e.counter("delivered"); got != uint64(packets) {
					t.Fatalf("%d of %d packets delivered", got, packets)
				}
				return e.counter("client_updates")
			}
			if one, many := updates(1), updates(12); one == 0 || many != one {
				t.Errorf("client updates: %d for 1 packet, %d for 12 committed at the same height", one, many)
			}
		}},
		{"a lost reply replays the whole transaction", "", func(t *testing.T, kind linkKind) {
			// The first transaction that carries packets is applied and its
			// reply lost: the retry hands the sink the same messages again,
			// and every one of them answers as it did the first time.
			e := newLinkEnv(t, kind, netsim.Config{})
			away, lost := e.cfg.A.Node, -1
			e.intercept = func(node netsim.NodeID, tx *netsim.MsgTx) {
				if node == away && lost < 0 && len(recvSeqs(*tx)) > 0 {
					lost = len(e.txs[away])
					e.loseReply(away)
				}
			}
			const n, amt = 8, 100
			for i := 0; i < n; i++ {
				e.send(t, amt, 0)
			}
			e.sched.RunFor(30 * time.Minute)

			if txs := e.txs[away]; lost < 0 || len(txs) < lost+2 {
				t.Fatalf("no transaction lost its reply and was retried (%d served)", len(txs))
			} else if first, replay := txs[lost], txs[lost+1]; shape(first) != shape(replay) || !slices.Equal(recvSeqs(first), recvSeqs(replay)) {
				t.Errorf("transaction %q with packets %v was retried as %q with %v", shape(first), recvSeqs(first), shape(replay), recvSeqs(replay))
			}
			e.wantTransferred(t, n*amt, n*amt)
			if d, lostRace := e.counter("delivered"), e.counter("lost_race"); d != n || lostRace != 0 {
				t.Errorf("delivered = %d, lost_race = %d, want %d and 0: a replay is not a second delivery", d, lostRace, n)
			}
			if r := e.counter("net_retries"); r != 1 {
				t.Errorf("net_retries = %d, want 1 (one timer for the whole transaction)", r)
			}
		}},
		{"a flush is one transaction, cut at the cap", cosmosLink, func(t *testing.T, kind linkKind) {
			// Packets committed at one height leave with the update that
			// unlocks them; the message past the cap forms the next
			// transaction.
			for _, tc := range []struct {
				packets int
				want    []string
			}{
				{12, []string{"1u 12r"}},
				{maxTxMsgs, []string{fmt.Sprintf("1u %dr", maxTxMsgs-1), "1r"}},
			} {
				e := newLinkEnv(t, kind, netsim.Config{})
				for i := 0; i < tc.packets; i++ {
					e.send(t, 5, 0)
				}
				e.sched.RunFor(10 * time.Minute)

				total := uint64(5 * tc.packets)
				e.wantTransferred(t, total, total)
				txs := e.txs[e.cfg.A.Node]
				if got := shapes(txs); !slices.Equal(got, tc.want) {
					t.Errorf("%d packets reached the sink as %q, want %q", tc.packets, got, tc.want)
				}
				for i, seq := range recvSeqs(txs...) {
					if seq != uint64(i+1) {
						t.Errorf("%d packets: recv %d carries sequence %d", tc.packets, i, seq)
					}
				}
				if tc.packets > 12 {
					continue
				}
				// The deliveries share a height too, so the acks come back
				// the same way: one update per leg.
				if got := shapes(e.txs[e.cfg.B.Node]); !slices.Equal(got, []string{"1u 12a"}) {
					t.Errorf("acks reached the source as %q, want one transaction", got)
				}
				if u := e.counter("client_updates"); u != 2 {
					t.Errorf("client_updates = %d, want 2 (one per leg)", u)
				}
			}
		}},
		{"acks toward the guest share one job", guestLink, func(t *testing.T, kind linkKind) {
			// Twelve packets the guest sends in one block are delivered in
			// one transaction, so their acks are written at one height and
			// reach the guest end as one batch: one chunk sequence and one
			// commit, not a job of about three transactions each. With a
			// chunk the host refuses mid-upload, the job gives all twelve
			// back, and the next one acknowledges each once.
			const n, amt = 12, 5
			for _, cut := range []bool{false, true} {
				e := newLinkEnv(t, kind, netsim.Config{})
				left := new(int)
				if cut {
					left = e.refuseMidJob(e.relayer.ends[1].(*guestEnd).lanes[1], "ack-packet/chunk", func() {})
				}
				for i := 0; i < n; i++ {
					e.send(t, amt, 0)
				}
				e.sched.RunFor(20 * time.Minute)

				e.wantTransferred(t, n*amt, n*amt)
				if got := e.counter("ch." + string(e.homeCh) + ".acks_to_guest"); got != n {
					t.Errorf("cut %v: acks_to_guest = %d, want %d (each exactly once)", cut, got, n)
				}
				commits, txs := count(e.hostLabels, "ack-packet/commit"), count(e.hostLabels, "ack-packet/chunk")+count(e.hostLabels, "ack-packet/commit")
				if !cut && (commits != 1 || txs > n) {
					t.Errorf("%d acks took %d commits in %d transactions, want one job of at most %d", n, commits, txs, n)
				}
				if cut && (*left == 0 || e.refused == 0 || commits != 1) {
					t.Errorf("refused with %d transactions left, %d refusals, %d commits: want a chunk refused mid-job and one commit after it", *left, e.refused, commits)
				}
				if n := e.guestState(t).StagingBuffers(); n != 0 {
					t.Errorf("cut %v: %d staging buffers left open", cut, n)
				}
			}
		}},
	}
	for _, kind := range []linkKind{guestLink, cosmosLink} {
		for _, sc := range scenarios {
			if sc.only != "" && sc.only != kind {
				continue
			}
			t.Run(string(kind)+"/"+sc.name, func(t *testing.T) { sc.run(t, kind) })
		}
	}
}

// TestCosmosRecvRequeuedAfterRefusedUpdate: the update three packets ride
// behind reaches the sink with a commit below 2/3 of its validator set's
// power, so the sink refuses it and the recvs fail on the missing consensus
// state. They go back to their shard — in sequence order, ahead of two
// packets committed while the transaction was in flight, which an ordered
// channel insists on — and the next transaction delivers all five exactly
// once.
func TestCosmosRecvRequeuedAfterRefusedUpdate(t *testing.T) {
	for _, kind := range []linkKind{cosmosLink, orderedLink} {
		t.Run(string(kind), func(t *testing.T) {
			e := newLinkEnv(t, kind, netsim.Config{})
			away := e.cfg.A.Node
			refused := uint64(0)
			e.intercept = func(node netsim.NodeID, tx *netsim.MsgTx) {
				m, ok := tx.Msgs[0].(netsim.MsgUpdateClient)
				if node != away || !ok {
					return
				}
				u, err := tendermint.UnmarshalUpdate(m.Header)
				if err != nil {
					t.Fatal(err)
				}
				if refused == 0 {
					// Hold the transaction in flight over the next block, which
					// commits two more packets: its retry is refused as well.
					refused = u.Header.Height
					e.loseReply(away)
					e.sched.After(time.Second, func() {
						e.send(t, 10, 0)
						e.send(t, 10, 0)
					})
				}
				if u.Header.Height == refused {
					u.Commit = u.Commit[:len(u.Commit)/2]
					m.Header = u.Marshal()
					tx.Msgs = append([]any{m}, tx.Msgs[1:]...)
				}
			}
			for i := 0; i < 3; i++ {
				e.send(t, 10, 0)
			}
			e.sched.RunFor(10 * time.Minute)

			if got, want := shapes(e.txs[away]), []string{"1u 3r", "1u 3r", "1u 5r"}; !slices.Equal(got, want) {
				t.Fatalf("the sink was called with %q, want %q (refused, its retry, the next flush)", got, want)
			}
			if got := recvSeqs(e.txs[away][2]); !slices.Equal(got, []uint64{1, 2, 3, 4, 5}) {
				t.Errorf("the flush after the refused update carries packets %v, want 1 to 5 in order", got)
			}
			client, err := e.away.Handler().Client(e.cfg.A.ClientOfPeer)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := client.ConsensusTime(ibc.Height(refused)); err == nil {
				t.Errorf("the sink accepted the under-powered update at height %d; the scenario did not run", refused)
			}
			e.wantTransferred(t, 50, 50)
			if d, a := e.counter("delivered"), e.counter("acks"); d != 5 || a != 5 {
				t.Errorf("delivered = %d, acks = %d, want 5 each", d, a)
			}
			if n := len(e.relayer.shards[0].packets[1]); n != 0 {
				t.Errorf("%d packets still queued on the shard", n)
			}
		})
	}
}

// TestTimeoutResubmittedAfterRefusal: the host refuses the first
// transaction of the engine's first timeout submission. The in-flight flag
// must clear with the dropped job so a later scan resubmits, and the
// sender is refunded exactly once. The fees the relayer reports are what
// the host debited: the refused transaction was never charged.
func TestTimeoutResubmittedAfterRefusal(t *testing.T) {
	e := newLinkEnv(t, guestLink, netsim.Config{})
	r := e.relayer
	key := r.Key().Public()
	balance := e.chain.Balance(key)
	e.refuse(func(tx *host.Transaction) bool { return strings.HasPrefix(tx.Label, "timeout-packet/") })
	e.sched.Every(15*time.Second, func() bool {
		r.CheckTimeouts()
		return true
	})
	// Too short for the cosmos chain to accept: delivery is rejected as
	// expired, so only the timeout can settle the packet.
	e.send(t, 90, 2*time.Second)
	e.sched.RunFor(10 * time.Minute)

	if e.refused == 0 {
		t.Fatal("the host never refused a timeout transaction; the scenario did not run")
	}
	if n := e.counter("timeouts_submitted"); n != 2 {
		t.Errorf("timeout submissions = %d, want 2 (refused, then resubmitted)", n)
	}
	e.wantTransferred(t, 90, 0)
	for _, tr := range r.traces {
		if tr.inFlight {
			t.Error("a trace is still marked in flight")
		}
	}
	if paid := balance - e.chain.Balance(key); paid != r.TotalFees {
		t.Errorf("relayer reports %d lamports in fees, the host debited %d", r.TotalFees, paid)
	}
}

// TestRecvJobResubmittedAfterRefusal: counterparty packets provable
// behind one client update share one recv job — as many of them as it
// takes for the job to have a chunk left to send once the update's commit
// went without it. The engine is cut off from the host at that point,
// while nothing else is in flight, and the host refuses the stalled chunk
// once the link heals: the job is dropped with nothing committed, so every
// packet must go back to its shard and arrive exactly once — except the
// first. The guest chain moved on during the cut (a user's send was
// committed and finalised) and the packet has expired at its head: every
// flush would resubmit it to be rejected again, so it is left to the
// timeout scan and its sender is refunded exactly once. The ack of the
// user's packet comes back as a job on the same lane, whose commit is
// refused the same way: it goes back to its shard and is acknowledged
// once.
func TestRecvJobResubmittedAfterRefusal(t *testing.T) {
	e := newLinkEnv(t, guestLink, netsim.Config{})
	r := e.relayer
	e.scanTimeouts()
	bank := r.shards[1]
	lane := r.ends[1].(*guestEnd).lanes[bank.index]

	const amount = 10
	// The first packet expires before the cosmos chain has even committed it.
	sent := []*ibc.Packet{e.sendBack(t, amount, time.Second)}
	// Neighbouring packets stage little more than themselves, so size the
	// job by what it stages: more chunks than the client update's tail, so
	// that it is still staging on its lane once the update's commit went.
	for builder := *r.ends[1].(*guestEnd).builder; ; {
		sent = append(sent, e.sendBack(t, amount, 0))
		staged := make([]*guest.RecvPayload, len(sent))
		for i, p := range sent {
			_, proof, err := e.away.Store().ProveMembership(ibc.CommitmentPath(p.SourcePort, p.SourceChannel, p.Sequence))
			if err != nil {
				t.Fatal(err)
			}
			staged[i] = &guest.RecvPayload{Packet: p, Proof: proof}
		}
		if len(builder.RecvPacketTxs(staged...)) >= 10 {
			break
		}
	}
	live := uint64(len(sent) - 1)
	refusedChunks := e.refuseMidJob(lane, "recv-packet/chunk", func() { e.send(t, 40, 0) })
	refusedAck := e.refuseMidJob(lane, "ack-packet/commit", func() {})
	e.sched.RunFor(20 * time.Minute)

	if *refusedChunks == 0 || *refusedAck == 0 {
		t.Fatalf("the host refused with %d recv and %d ack transactions left to send, want both mid-job; the scenario did not run", *refusedChunks, *refusedAck)
	}
	if e.refused != 2 {
		t.Fatalf("%d submissions were refused, want 2 (a recv chunk and an ack commit); the scenario did not run", e.refused)
	}
	if got, want := e.homeApp.Balance("dave", transfer.VoucherPrefix(bankPort, e.homeCh)+"COIN"), live*amount; got != want {
		t.Errorf("dave holds %d vouchers, want %d (every live packet exactly once)", got, want)
	}
	// The user's packet is delivered and acked too.
	if d, a := e.counter("delivered"), e.counter("acks"); d != live+1 || a != live+1 {
		t.Errorf("delivered = %d, acks = %d, want %d each (the expired packet is neither)", d, a, live+1)
	}
	// A job that landed observes one recv.txs sample per packet it carried.
	if n := len(e.tel.Metrics.Snapshot().HistogramSamples("relayer.recv.txs")); n != int(live) {
		t.Errorf("recv jobs that landed carried %d packets, want %d", n, live)
	}
	if got, n := e.awayApp.Balance("carol", "COIN"), e.counter("timeouts_submitted"); got != amount || n != 1 {
		t.Errorf("carol holds %d COIN after %d timeout submissions, want %d after 1 (the expired packet refunded exactly once)", got, n, amount)
	}
	for _, p := range sent {
		if e.away.Handler().HasCommitment(p) {
			t.Errorf("away chain still commits packet %d: neither acked nor timed out", p.Sequence)
		}
	}
	e.wantTransferred(t, 40, 40)
	if got := e.counter("ch." + string(e.homeCh) + ".acks_to_guest"); got != 1 {
		t.Errorf("acks_to_guest = %d, want 1 (refused, then resubmitted)", got)
	}
	if p, a := len(bank.packets[0]), len(bank.acks[0]); p != 0 || a != 0 {
		t.Errorf("%d packets and %d acks still queued on the shard", p, a)
	}
	// The expired packet is never staged again: the one recv job that
	// commits is the live packets' redelivery.
	if got := count(e.hostLabels, "recv-packet/commit"); got != 1 {
		t.Errorf("%d recv commits, want 1: the expired packet was staged again", got)
	}
	// The two jobs given up staged their chunks for nothing: once a
	// transaction got through again, their buffers were closed.
	if n := e.guestState(t).StagingBuffers(); n != 0 {
		t.Errorf("%d staging buffers left open", n)
	}
}

// guestState is the guest link's contract state.
func (e *linkEnv) guestState(t *testing.T) *guest.State {
	t.Helper()
	st, err := e.contract.State(e.chain)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestRefusedGuestAckRequeued: the guest end relays the ack of a packet it
// received behind the header of the block that commits the ack. Here that
// header lands out of order — the cosmos chain's client is handed a header
// it already holds, and refuses it as stale — so the ack, proved at a
// height the client never reached, is refused too. It goes to the engine's
// ack queue, which updates the client to the guest's head and submits it
// again: the packet is acknowledged exactly once.
func TestRefusedGuestAckRequeued(t *testing.T) {
	e := newLinkEnv(t, guestLink, netsim.Config{})
	st, err := e.contract.State(e.chain)
	if err != nil {
		t.Fatal(err)
	}
	client, err := e.away.Handler().Client(e.cfg.A.ClientOfPeer)
	if err != nil {
		t.Fatal(err)
	}
	voucher := transfer.VoucherPrefix(bankPort, e.homeCh) + "COIN"
	stale := uint64(0)
	e.intercept = func(node netsim.NodeID, tx *netsim.MsgTx) {
		m, ok := tx.Msgs[0].(netsim.MsgUpdateClient)
		if node != e.cfg.A.Node || !ok || m.ClientID != e.cfg.A.ClientOfPeer || stale != 0 || e.homeApp.Balance("dave", voucher) == 0 {
			return
		}
		// The first header pushed after the guest received the packet is
		// the one its ack needs; swap in the one the client already holds.
		stale = uint64(client.LatestHeight())
		entry, err := st.Entry(stale)
		if err != nil {
			t.Fatal(err)
		}
		m.Header = entry.SignedBlock().Marshal()
		tx.Msgs = append([]any{m}, tx.Msgs[1:]...)
	}
	p := e.sendBack(t, 25, 0)
	e.sched.RunFor(10 * time.Minute)

	if stale == 0 {
		t.Fatal("no header was pushed after the delivery; the scenario did not run")
	}
	refused := 0
	for _, tx := range e.txs[e.cfg.A.Node] {
		for _, m := range tx.Msgs {
			if a, ok := m.(netsim.MsgAckPacket); ok && a.Packet.Sequence == p.Sequence {
				refused++
			}
		}
	}
	if refused < 2 {
		t.Fatalf("the ack was submitted %d times, want it refused and submitted again", refused)
	}
	if got := e.homeApp.Balance("dave", voucher); got != 25 {
		t.Errorf("dave holds %d vouchers, want 25", got)
	}
	if e.away.Handler().HasCommitment(p) {
		t.Error("the away chain still commits the packet: its ack was never relayed")
	}
	if a, c := e.counter("acks"), e.counter("ch."+string(e.awayCh)+".acks_to_cp"); a != 1 || c != 1 {
		t.Errorf("acks = %d, acks_to_cp = %d, want 1 each (exactly once)", a, c)
	}
}

// TestRefusedGuestRecvRequeued: the header pump pushes the header of the
// guest block that carries a packet, and the cosmos chain's client is
// handed a header it already holds instead, which its front-end answers as
// applied. The recv the landing flushes, proved at a height the client never
// reached, is refused. It goes back to its shard, the engine updates the
// client to the guest's head and submits it again: bob is paid exactly once.
func TestRefusedGuestRecvRequeued(t *testing.T) {
	e := newLinkEnv(t, guestLink, netsim.Config{})
	st := e.guestState(t)
	client, err := e.away.Handler().Client(e.cfg.A.ClientOfPeer)
	if err != nil {
		t.Fatal(err)
	}
	stale := uint64(0)
	e.intercept = func(node netsim.NodeID, tx *netsim.MsgTx) {
		m, ok := tx.Msgs[0].(netsim.MsgUpdateClient)
		if node != e.cfg.A.Node || !ok || m.ClientID != e.cfg.A.ClientOfPeer || stale != 0 {
			return
		}
		stale = uint64(client.LatestHeight())
		entry, err := st.Entry(stale)
		if err != nil {
			t.Fatal(err)
		}
		m.Header = entry.SignedBlock().Marshal()
		tx.Msgs = append([]any{m}, tx.Msgs[1:]...)
	}
	e.send(t, 25, 0)
	e.sched.RunFor(10 * time.Minute)

	if stale == 0 {
		t.Fatal("no header was pushed to the cosmos chain; the scenario did not run")
	}
	if got := len(recvSeqs(e.txs[e.cfg.A.Node]...)); got != 2 {
		t.Errorf("the recv was submitted %d times, want it refused and submitted again", got)
	}
	e.wantTransferred(t, 25, 25)
	if d, a := e.counter("delivered"), e.counter("acks"); d != 1 || a != 1 {
		t.Errorf("delivered = %d, acks = %d, want 1 each (exactly once)", d, a)
	}
}

// TestGuestAcksRideOneHeader: three cosmos packets reach the guest in one
// recv job, so one guest block commits their three acks. The cosmos chain's
// client learns that block from one header push, which the three acks ride.
func TestGuestAcksRideOneHeader(t *testing.T) {
	e := newLinkEnv(t, guestLink, netsim.Config{})
	for i := 0; i < 3; i++ {
		e.sendBack(t, 10, 0)
	}
	e.sched.RunFor(10 * time.Minute)

	pushes := map[uint64]int{}
	ackHeights := map[uint64]int{}
	for _, tx := range e.txs[e.cfg.A.Node] {
		for _, m := range tx.Msgs {
			switch m := m.(type) {
			case netsim.MsgUpdateClient:
				sb, err := guestblock.UnmarshalSignedBlock(m.Header)
				if err != nil {
					t.Fatal(err)
				}
				pushes[sb.Block.Height]++
			case netsim.MsgAckPacket:
				ackHeights[uint64(m.ProofHeight)]++
			}
		}
	}
	if len(ackHeights) != 1 {
		t.Fatalf("acks proved at heights %v, want one block committing all three; the scenario did not run", ackHeights)
	}
	for h, n := range ackHeights {
		if n != 3 {
			t.Fatalf("%d acks proved at height %d, want 3", n, h)
		}
		if pushes[h] != 1 {
			t.Errorf("the header of guest block %d was pushed %d times, want once for its three acks", h, pushes[h])
		}
	}
	if got := e.homeApp.Balance("dave", transfer.VoucherPrefix(bankPort, e.homeCh)+"COIN"); got != 30 {
		t.Errorf("dave holds %d vouchers, want 30", got)
	}
	if d, a := e.counter("delivered"), e.counter("acks"); d != 3 || a != 3 {
		t.Errorf("delivered = %d, acks = %d, want 3 each", d, a)
	}
}

// TestGuestRecvWaitsForRefusedUpdate: the client update three counterparty
// packets need is submitted in full, and the guest refuses its commit in
// execution — the relayer sees only its transactions accepted. The recv job
// proven at the update's height commits in the same submission and fails
// on the missing consensus state. Its packets are settled by the guest's
// state: none counted delivered, all back on their shard, the job's buffer
// closed. They wait at the height the guest's client holds, the next update
// takes the client past them, and each is delivered exactly once.
func TestGuestRecvWaitsForRefusedUpdate(t *testing.T) {
	e := newLinkEnv(t, guestLink, netsim.Config{})
	refused := false
	deliveredAtRetry := -1
	e.hostIntercept = func(tx *host.Transaction) *host.Transaction {
		if tx.Label != "client-update/commit" {
			return tx
		}
		if refused {
			if deliveredAtRetry < 0 {
				deliveredAtRetry = int(e.counter("delivered"))
			}
			return tx
		}
		// Name a client the guest does not have.
		refused = true
		id := wire.NewReader(tx.Instructions[0].Data[1:]).U64()
		bad := *tx
		bad.Instructions = []host.Instruction{tx.Instructions[0]}
		bad.Instructions[0].Data = guest.EncodeCommit(guest.OpCommitUpdateClient, &guest.CommitArgs{BufferID: id, ClientID: "07-tendermint-404"})
		return &bad
	}
	const n, amt = 3, 20
	for i := 0; i < n; i++ {
		e.sendBack(t, amt, 0)
	}
	e.sched.RunFor(10 * time.Minute)

	if !refused {
		t.Fatal("no client update reached the host; the scenario did not run")
	}
	if deliveredAtRetry != 0 {
		t.Errorf("delivered = %d when the next update went out, want 0: the refused update's recv job landed nothing", deliveredAtRetry)
	}
	if got := e.homeApp.Balance("dave", transfer.VoucherPrefix(bankPort, e.homeCh)+"COIN"); got != n*amt {
		t.Errorf("dave holds %d vouchers, want %d (every packet exactly once)", got, n*amt)
	}
	if d, lost := e.counter("delivered"), e.counter("lost_race"); d != n || lost != 0 {
		t.Errorf("delivered = %d, lost_race = %d, want %d and 0", d, lost, n)
	}
	if got := count(e.hostLabels, "recv-packet/commit"); got != 2 {
		t.Errorf("%d recv commits, want 2: one refused with its update, one behind the next", got)
	}
	if got := count(e.hostLabels, "close-buffer"); got != 1 {
		t.Errorf("%d buffer closes, want 1 (the refused update's recv job)", got)
	}
	if n := e.guestState(t).StagingBuffers(); n != 0 {
		t.Errorf("%d staging buffers left open", n)
	}
}

// stagingSlowly paces host transactions two seconds apart, so the
// 115-validator set's whole chunks take longer to stage than the cosmos
// chain's six-second block interval.
func stagingSlowly(c *Config) { c.TxGap = sim.Constant(2 * time.Second) }

// TestGuestUpdateRetargetsToWaitingPackets: a packet the cosmos chain
// commits while the update its predecessor needs is staging the validator
// set rides that same update. The pacer binds the header when it reaches
// the height-dependent part, to the chain's head, since a packet waits
// above the planned height: one update commit delivers both packets, where
// an update whose header is fixed when it is planned needs a second.
func TestGuestUpdateRetargetsToWaitingPackets(t *testing.T) {
	e := newLinkEnv(t, wideGuestLink, netsim.Config{}, stagingSlowly)
	var planned, head uint64
	e.hostIntercept = func(tx *host.Transaction) *host.Transaction {
		switch {
		case tx.Label == "client-update/chunk" && planned == 0:
			// Committed at the cosmos chain's next block, while the set's
			// chunks still go out.
			planned = e.away.Height()
			e.sendBack(t, 20, 0)
		case tx.Label == "client-update/commit" && head == 0:
			head = e.away.Height()
		}
		return tx
	}
	e.sendBack(t, 20, 0)
	e.sched.RunFor(10 * time.Minute)

	if planned == 0 || head <= planned {
		t.Fatalf("update planned at %d committed with the head at %d: no block came while the set staged; the scenario did not run", planned, head)
	}
	if got := count(e.hostLabels, "client-update/commit"); got != 1 {
		t.Errorf("%d client-update commits, want 1: the second packet rides the first update", got)
	}
	if got := e.homeApp.Balance("dave", transfer.VoucherPrefix(bankPort, e.homeCh)+"COIN"); got != 40 {
		t.Errorf("dave holds %d vouchers, want 40", got)
	}
	if d, a := e.counter("delivered"), e.counter("acks"); d != 2 || a != 2 {
		t.Errorf("delivered = %d, acks = %d, want 2 each", d, a)
	}
	if got := count(e.hostLabels, "recv-packet/commit"); got != 1 {
		t.Errorf("%d recv commits, want 1: both packets are provable at the installed height", got)
	}
}

// TestGuestUpdateForAcksKeepsPlannedHeight: an update the guest's client
// needs only for acks installs exactly the height it was planned at, while
// the cosmos chain produces blocks and writes the ack of a second packet
// above that height as the set stages: acks alone never move the header.
func TestGuestUpdateForAcksKeepsPlannedHeight(t *testing.T) {
	e := newLinkEnv(t, wideGuestLink, netsim.Config{}, stagingSlowly)
	var planned, head uint64
	e.hostIntercept = func(tx *host.Transaction) *host.Transaction {
		switch {
		case tx.Label == "client-update/chunk" && planned == 0:
			planned = e.away.Height()
			e.sched.After(0, func() { e.send(t, 30, 0) })
		case tx.Label == "client-update/commit" && head == 0:
			head = e.away.Height()
		}
		return tx
	}
	e.send(t, 30, 0)
	e.sched.RunFor(10 * time.Minute)

	if planned == 0 || head <= planned {
		t.Fatalf("update planned at %d committed with the head at %d: no block came while the set staged; the scenario did not run", planned, head)
	}
	e.wantTransferred(t, 60, 60)
	client, err := e.guestState(t).Handler.Client(e.cfg.B.ClientOfPeer)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.ConsensusTime(ibc.Height(planned)); err != nil {
		t.Errorf("the first update did not install its planned height %d (the head was %d at its commit): %v", planned, head, err)
	}
}
