package core

import (
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/counterparty"
	"repro/internal/fees"
	"repro/internal/host"
	"repro/internal/ibc"
	"repro/internal/middleware"
	"repro/internal/telemetry"
)

// metricReaders is the rule that keeps a telemetry key: a key a deployment
// writes must match a row, and a row names what reads it — the repo
// benchmark (benchmark/run.go), a figure or verdict in internal/experiments,
// the guestsim summary, an example, or a test for which the key is the only
// witness. The generic `guestsim -metrics` dump is not a reader. Add a row
// only together with its reader; a key no row matches is deleted instead.
var metricReaders = []struct{ pattern, reader string }{
	{`^host\.(fees_lamports|txs_executed|tx_compute_units)$`, "benchmark/run.go: host_cost_cents_per_packet, host.txs_per_packet, host.compute_units_per_packet"},
	{`^host\.mempool_(rejected|shed)$`, "experiments loadVerdict (overload admission)"},
	{`^loadgen\.(offered|admitted|rejected|shed)$`, "experiments loadVerdict"},
	{`^guest\.block\.(interval_s|finalise_s)$`, "Fig. 6 (experiments Deployment.BlockIntervals), outage verdict, benchmark guest.packets_per_block"},
	{`^guest\.state\.(live_nodes|retained_versions)$`, "benchmark guest.live_nodes_end, guest.retained_versions_end"},
	{`\.ibc\.packets_(sent|received|acked|timed_out)$`, "benchmark guest.packets_per_block; TestPacketTraceSpanChain, TestTimeoutTraceSpan"},
	{`\.callbacks\.(executed|recv_rejected)$`, "experiments middlewareVerdict"},
	{`\.forward\.(forwarded|stranded)$`, "experiments middlewareVerdict"},
	{`^validator\.signatures$`, "benchmark validator.signatures_per_block"},
	{`^(validator|relayer(\.link\.[^.]+)?)\.net_retries$`, "guestsim network-faults line, outage verdict, benchmark relayer.net_retries_per_packet"},
	{`^netsim\.(sent|dropped|dropped_crash|dropped_partition|duplicated|reordered)$`, "guestsim network-faults line, benchmark netsim.msgs_per_packet and netsim.dropped_share"},
	{`^netsim\.delivered$`, "TestChaosDeterminism fingerprint"},
	{`^mesh\.routing\.recomputes$`, "experiments adaptive verdict, benchmark routing.recomputes"},
	{`^relayer(\.link\.[^.]+)?\.(client_updates|delivered|acks|lost_race|hop\.latency_s)$`, "experiments LinkReport, benchmark relayer.client_updates_per_packet"},
	{`^relayer(\.link\.[^.]+)?\.timeouts_submitted$`, "examples/tokentransfer"},
	{`^relayer(\.link\.[^.]+)?\.(update\.(latency_s|txs|cost_cents|sigs)|recv\.(txs|cost_cents)|job\.latency_s)$`, "Figs. 4-5 and the §V-A receive flow (experiments Deployment), benchmark relayer.* rows, examples/quickstart and hostprofiles"},
	{`^relayer(\.link\.[^.]+)?\.(queue_depth|backlog)$`, "benchmark relayer.queue_depth_end"},
	{`^relayer(\.link\.[^.]+)?\.ch\.[^.]+\.(delivered_to_cp|recv_submitted|acks_to_guest)$`, "guestsim per-channel line, experiments flow acks"},
	{`^relayer(\.link\.[^.]+)?\.ch\.[^.]+\.(acks_to_cp|timeouts)$`, "relayer TestRefusedGuestAckRequeued (acks_to_cp exactly once), TestCheckTimeoutsMatchesFullWalk (per-channel timeouts)"},
}

// TestEveryMetricHasAReader runs a pair deployment with a callbacks + fees
// stack on both sides and a three-chain fee mesh with adaptive routing,
// each with traffic in both directions, and fails on any key their
// snapshots hold that no row of metricReaders matches.
func TestEveryMetricHasAReader(t *testing.T) {
	rows := make([]*regexp.Regexp, len(metricReaders))
	for i, r := range metricReaders {
		rows[i] = regexp.MustCompile(r.pattern)
	}
	unread := make(map[string]bool)
	check := func(n *Network) {
		snap := n.SnapshotTelemetry()
		var keys []string
		for k := range snap.Counters {
			keys = append(keys, k)
		}
		for k := range snap.Gauges {
			keys = append(keys, k)
		}
		for k := range snap.Histograms {
			keys = append(keys, k)
		}
	next:
		for _, k := range keys {
			for _, re := range rows {
				if re.MatchString(k) {
					continue next
				}
			}
			unread[k] = true
		}
	}
	check(readerPair(t, nil))
	check(readerMesh(t, nil))
	if len(unread) > 0 {
		keys := make([]string, 0, len(unread))
		for k := range unread {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		t.Fatalf("%d telemetry keys have no reader (delete the writer, or add a row naming the reader):\n  %s",
			len(keys), strings.Join(keys, "\n  "))
	}
}

// eventReaders is the rule that keeps an event kind, keyed by EventKind():
// a kind a deployment emits — on a handler bus, into a host block, or into
// a counterparty's relay log — must have a row, and the row names what
// reads it: non-test code, the repo benchmark, a figure or verdict, an
// example, or a test. Add a row only together with its reader; a kind with
// no reader is deleted instead.
var eventReaders = map[string]string{
	"SendPacket":        "relayer guestEnd (a guest block's packets, guest.go), benchmark/phase.go send spans",
	"WriteAck":          "counterparty front-end (acks to serve), experiments scenario runner (deliveries), benchmark/phase.go",
	"AcknowledgePacket": "benchmark/phase.go ack spans",
	"TimeoutPacket":     "relayer TestCheckTimeoutsOrdersSameScanExpiries",
	"NewBlock":          "validator daemon (blocks to sign), core dispatch (guest.block.interval_s)",
	"FinalisedBlock":    "relayer guestEnd (Alg. 2 header pump), core dispatch (guest.block.finalise_s)",
	"PacketDelivered":   "relayer guestEnd (acks to relay), guest recvEnv.run (recv_batch_test.go)",
	"ClientUpdated":     "relayer TestChunkedClientUpdateThroughTransactions",
	"PacketAcked":       "guest TestCommitSettleBatch",
	"PacketTimedOut":    "guest TestCommitSettleBatch",
	"PacketsCommitted":  "relayer cosmosEnd (packets to relay, cosmos.go), benchmark/trace.go",
}

// TestEveryEventHasAReader runs the deployments of TestEveryMetricHasAReader
// and fails on any event kind they emit that has no row in eventReaders.
// It taps every handler bus before traffic starts, every host block, and
// every counterparty's relay log.
func TestEveryEventHasAReader(t *testing.T) {
	emitted := make(map[string]bool)
	note := func(ev telemetry.Event) { emitted[ev.EventKind()] = true }
	var finish []func()
	watch := func(n *Network) {
		st, err := n.GuestState()
		if err != nil {
			t.Fatal(err)
		}
		st.Handler.Events().Subscribe(note)
		var cps []*counterparty.Chain
		for _, name := range n.Mesh.Order {
			if cp := n.Mesh.Chain(name).CP; cp != nil {
				cp.Handler().Events().Subscribe(note)
				cps = append(cps, cp)
			}
		}
		// The reader must exist before the host's first block to see every
		// one. NewNetwork produces none (the bootstrap handshakes and
		// their guest blocks run as direct calls, not host transactions);
		// fail rather than miss any if that changes. The host holds every
		// block this reader has not pulled, so one pull at the end sees
		// the whole run.
		if s := n.Host.Slot(); s != 0 {
			t.Fatalf("the host produced blocks up to slot %d before the test could read them", s)
		}
		blocks := n.Host.NewReader()
		finish = append(finish, func() {
			for _, b := range blocks.Pull(nil) {
				for _, ev := range b.Events {
					note(ev.Payload)
				}
			}
			for _, cp := range cps {
				log, _ := cp.EventsSince(0)
				for _, ev := range log {
					note(ev.Payload)
				}
			}
		})
	}
	readerPair(t, watch)
	readerMesh(t, watch)
	for _, f := range finish {
		f()
	}
	var unread []string
	for k := range emitted {
		if _, ok := eventReaders[k]; !ok {
			unread = append(unread, k)
		}
	}
	if len(unread) > 0 {
		sort.Strings(unread)
		t.Fatalf("%d event kinds have no reader (delete the kind and its emit sites, or add a row naming the reader):\n  %s",
			len(unread), strings.Join(unread, "\n  "))
	}
}

// readerPair is the guest ↔ cp pair with callbacks and ICS-29 fees on both
// ends, after one transfer each way. watch, when set, sees the network
// before any traffic.
func readerPair(t *testing.T, watch func(*Network)) *Network {
	t.Helper()
	cp := counterparty.DefaultConfig()
	cp.NumValidators = 12
	cp.BlockInterval = 3 * time.Second
	stack := []MiddlewareSpec{
		{Kind: MiddlewareCallbacks},
		{Kind: MiddlewareFees, Fees: middleware.FeeSchedule{Denom: "fee", RecvFee: 3, AckFee: 2, TimeoutFee: 4}},
	}
	n, err := NewNetwork(Config{CP: cp, Behaviours: fastFleet(4), Seed: 7, Channels: []ChannelSpec{
		{GuestMiddleware: stack, CPMiddleware: stack},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if watch != nil {
		watch(n)
	}
	for _, side := range []*middleware.Stack{n.Channels[0].GuestStack, n.Mesh.Chain("cp").Stacks["transfer"]} {
		side.Middleware("callbacks").(*middleware.Callbacks).Register("transfer", "",
			&middleware.Callback{Budget: 1_000, OnRecv: func(ibc.Packet, middleware.Meter) error { return nil }})
	}
	alice := n.NewUser("alice", 10*host.LamportsPerSOL, "GUEST", 1_000)
	n.GuestApp.Mint(alice.Key.Public().String(), "fee", 1_000)
	n.CPApp.Mint("bob", "PICA", 1_000)
	n.CPApp.Mint("bob", "fee", 1_000)
	if _, err := n.SendTransferFromGuest(alice, "cp-bob", "GUEST", 100, "", fees.PriorityPolicy, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := n.SendTransferFromCP("bob", alice.Key.Public().String(), "PICA", 100, "", 0); err != nil {
		t.Fatal(err)
	}
	n.Run(5 * time.Minute)
	settled(t, n.Channels[0].GuestStack, n.Mesh.Chain("cp").Stacks["transfer"])
	return n
}

// readerMesh is the three-chain line guest — a — b with a fee schedule and
// adaptive routing, after one routed transfer each way. watch is as for
// readerPair.
func readerMesh(t *testing.T, watch func(*Network)) *Network {
	t.Helper()
	spec := MeshSpec{
		Chains:  []MeshChainSpec{{Name: "guest", Kind: MeshGuest}, {Name: "a"}, {Name: "b"}},
		Links:   []MeshLinkSpec{{A: "guest", B: "a"}, {A: "a", B: "b"}},
		Fees:    middleware.FeeSchedule{Denom: "FEE", RecvFee: 2, AckFee: 1, TimeoutFee: 1},
		Routing: RoutingAdaptive,
	}
	n, err := NewNetwork(Config{Behaviours: fastFleet(4), Seed: 11, Mesh: spec})
	if err != nil {
		t.Fatal(err)
	}
	if watch != nil {
		watch(n)
	}
	alice := n.NewUser("alice", 10*host.LamportsPerSOL, "GUEST", 1_000)
	n.Mesh.Chain("guest").Apps["transfer"].Mint(alice.Key.Public().String(), "FEE", 1_000)
	b := n.Mesh.Chain("b")
	bApp := b.Apps["transfer"]
	bApp.Mint("carol", "TOK", 1_000)
	bApp.Mint("carol", "FEE", 1_000)
	if _, err := n.SendRoutedFromGuest(alice, "b", "carol", "GUEST", 100, "", fees.PriorityPolicy, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := n.SendRouted("b", "guest", "carol", alice.Key.Public().String(), "TOK", 100, "", 0); err != nil {
		t.Fatal(err)
	}
	n.Run(45 * time.Minute)
	settled(t, n.Mesh.Chain("guest").Stacks["transfer"], b.Stacks["transfer"])
	return n
}

// settled fails unless each sender's fee escrow paid out, i.e. its
// transfer made the whole round trip and every lazily named key exists.
func settled(t *testing.T, senders ...*middleware.Stack) {
	t.Helper()
	for i, s := range senders {
		if f := s.Middleware("fees").(*middleware.Fees); f.PaidTotal == 0 {
			t.Fatalf("sender %d: no fee settled (escrowed %d), the transfer did not round-trip", i, f.EscrowedTotal)
		}
	}
}
