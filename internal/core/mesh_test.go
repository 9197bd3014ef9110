package core

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/fees"
	"repro/internal/host"
	"repro/internal/netsim"
)

// lineMesh is the 4-chain line guest — a — b — c.
func lineMesh() MeshSpec {
	return MeshSpec{
		Chains: []MeshChainSpec{
			{Name: "guest", Kind: MeshGuest},
			{Name: "a"},
			{Name: "b"},
			{Name: "c"},
		},
		Links: []MeshLinkSpec{
			{A: "guest", B: "a"},
			{A: "a", B: "b"},
			{A: "b", B: "c"},
		},
	}
}

func meshNetwork(t *testing.T, cfg Config) *Network {
	t.Helper()
	n, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestMeshLineRoutedTransfer(t *testing.T) {
	n := meshNetwork(t, Config{Behaviours: fastFleet(4), Seed: 11, Mesh: lineMesh()})
	alice := n.NewUser("alice", 10*host.LamportsPerSOL, "GUEST", 1_000)

	rs, err := n.SendRoutedFromGuest(alice, "c", "carol", "GUEST", 400, "", fees.PriorityPolicy, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Route) != 3 {
		t.Fatalf("route has %d hops, want 3", len(rs.Route))
	}
	n.Run(45 * time.Minute)

	final := rs.DenomTrace[len(rs.DenomTrace)-1]
	cApp := n.Mesh.Chain("c").Apps["transfer"]
	if got := cApp.Balance("carol", final); got != 400 {
		t.Fatalf("carol balance = %d %s, want 400", got, final)
	}
	// Exact conservation at every hop: the source escrows the native
	// denom, each intermediate escrows the voucher it re-sent, and the
	// forward module accounts end flat.
	for i, h := range rs.Route {
		mc := n.Mesh.Chain(h.From)
		app := mc.Apps[h.Port]
		if got := app.EscrowedAmount(h.Channel, rs.DenomTrace[i]); got != 400 {
			t.Fatalf("hop %d (%s): escrow = %d %s, want 400", i, h.From, got, rs.DenomTrace[i])
		}
		if h.From != n.Mesh.GuestName {
			if got := app.Balance(n.Mesh.ForwardAccount, rs.DenomTrace[i]); got != 0 {
				t.Fatalf("hop %d (%s): forward account holds %d %s, want 0", i, h.From, got, rs.DenomTrace[i])
			}
		}
	}
}

func TestMeshCosmosRoundTripUnwindsDenom(t *testing.T) {
	n := meshNetwork(t, Config{Behaviours: fastFleet(4), Seed: 13, Mesh: lineMesh()})
	aApp := n.Mesh.Chain("a").Apps["transfer"]
	aApp.Mint("alice", "TOK", 500)

	// A→B→C: alice's TOK arrives on c as a twice-prefixed voucher.
	out, err := n.SendRouted("a", "c", "alice", "carol", "TOK", 500, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	n.Run(30 * time.Minute)

	voucher := out.DenomTrace[len(out.DenomTrace)-1]
	cApp := n.Mesh.Chain("c").Apps["transfer"]
	if got := cApp.Balance("carol", voucher); got != 500 {
		t.Fatalf("carol balance = %d %s, want 500", got, voucher)
	}

	// C→B→A: sending the voucher back unwinds every prefix and releases
	// the original escrow.
	back, err := n.SendRouted("c", "a", "carol", "alice", voucher, 500, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := back.DenomTrace[len(back.DenomTrace)-1]; got != "TOK" {
		t.Fatalf("return trace ends at %q, want TOK", got)
	}
	n.Run(30 * time.Minute)

	if got := aApp.Balance("alice", "TOK"); got != 500 {
		t.Fatalf("alice balance = %d TOK after round trip, want 500", got)
	}
	for i, h := range out.Route {
		app := n.Mesh.Chain(h.From).Apps[h.Port]
		if got := app.EscrowedAmount(h.Channel, out.DenomTrace[i]); got != 0 {
			t.Fatalf("hop %d (%s): escrow = %d after round trip, want 0", i, h.From, got)
		}
	}
	if got := cApp.Balance("carol", voucher); got != 0 {
		t.Fatalf("carol still holds %d %s", got, voucher)
	}
}

func TestMeshMultiHopTimeoutRefundsHopByHop(t *testing.T) {
	spec := lineMesh()
	// Onward hops expire after 10 minutes; the b—c relayer is cut off
	// from chain c long enough for the final hop to time out.
	spec.ForwardTimeout = 10 * time.Minute
	cfg := Config{Behaviours: fastFleet(4), Seed: 17, Mesh: spec}
	cfg.Net.Partitions = []netsim.PartitionWindow{{
		A:    []netsim.NodeID{netsim.ChainNode("c")},
		B:    []netsim.NodeID{netsim.LinkRelayerNode("b-c")},
		From: 0, Duration: 90 * time.Minute,
	}}
	n := meshNetwork(t, cfg)
	alice := n.NewUser("alice", 10*host.LamportsPerSOL, "GUEST", 1_000)

	rs, err := n.SendRoutedFromGuest(alice, "c", "carol", "GUEST", 300, "", fees.PriorityPolicy, 0)
	if err != nil {
		t.Fatal(err)
	}
	n.Run(3 * time.Hour)

	// Hops 1 and 2 settled: their escrows hold. Hop 3 timed out: the
	// refund landed at b's forward module account, not in limbo.
	for i := 0; i < 2; i++ {
		h := rs.Route[i]
		app := n.Mesh.Chain(h.From).Apps[h.Port]
		if got := app.EscrowedAmount(h.Channel, rs.DenomTrace[i]); got != 300 {
			t.Fatalf("hop %d (%s): escrow = %d, want 300 (settled)", i, h.From, got)
		}
	}
	h2 := rs.Route[2]
	bApp := n.Mesh.Chain("b").Apps["transfer"]
	if got := bApp.EscrowedAmount(h2.Channel, rs.DenomTrace[2]); got != 0 {
		t.Fatalf("hop 3 escrow = %d after timeout, want 0", got)
	}
	if got := bApp.Balance(n.Mesh.ForwardAccount, rs.DenomTrace[2]); got != 300 {
		t.Fatalf("forward account on b = %d %s, want 300 (refund)", got, rs.DenomTrace[2])
	}
	final := rs.DenomTrace[len(rs.DenomTrace)-1]
	if got := n.Mesh.Chain("c").Apps["transfer"].Balance("carol", final); got != 0 {
		t.Fatalf("carol balance = %d, want 0 (hop timed out)", got)
	}
}

// meshFingerprint reduces a run to a deterministic string: every counter
// plus the balances the tests above assert on.
func meshFingerprint(n *Network, extra ...string) string {
	snap := n.SnapshotTelemetry()
	keys := make([]string, 0, len(snap.Counters))
	for k := range snap.Counters {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%s=%d\n", k, snap.Counters[k])
	}
	for _, e := range extra {
		b.WriteString(e + "\n")
	}
	return b.String()
}

func runMeshOnce(t *testing.T, spec MeshSpec) string {
	t.Helper()
	n := meshNetwork(t, Config{Behaviours: fastFleet(4), Seed: 23, Mesh: spec})
	alice := n.NewUser("alice", 10*host.LamportsPerSOL, "GUEST", 1_000)
	rs, err := n.SendRoutedFromGuest(alice, "c", "carol", "GUEST", 250, "", fees.PriorityPolicy, 0)
	if err != nil {
		t.Fatal(err)
	}
	n.Run(40 * time.Minute)
	final := rs.DenomTrace[len(rs.DenomTrace)-1]
	carol := n.Mesh.Chain("c").Apps["transfer"].Balance("carol", final)
	return meshFingerprint(n, fmt.Sprintf("carol=%d %s", carol, final))
}

func TestMeshDeterministicAcrossLinkOrder(t *testing.T) {
	base := runMeshOnce(t, lineMesh())

	// Same seed, same spec: identical fingerprint.
	if again := runMeshOnce(t, lineMesh()); again != base {
		t.Fatal("same-seed mesh runs diverged")
	}

	// Same topology declared backwards with every link flipped: the
	// canonicalisation must make it indistinguishable.
	flipped := lineMesh()
	for i, j := 0, len(flipped.Links)-1; i < j; i, j = i+1, j-1 {
		flipped.Links[i], flipped.Links[j] = flipped.Links[j], flipped.Links[i]
	}
	for i := range flipped.Links {
		l := &flipped.Links[i]
		l.A, l.B = l.B, l.A
		l.PortA, l.PortB = l.PortB, l.PortA
		l.NetA, l.NetB = l.NetB, l.NetA
	}
	for i, j := 0, len(flipped.Chains)-1; i < j; i, j = i+1, j-1 {
		flipped.Chains[i], flipped.Chains[j] = flipped.Chains[j], flipped.Chains[i]
	}
	if perm := runMeshOnce(t, flipped); perm != base {
		t.Fatal("link declaration order changed the mesh result")
	}
}

func TestMeshRelayerNamespacesNeverCollide(t *testing.T) {
	n := meshNetwork(t, Config{Behaviours: fastFleet(4), Seed: 29, Mesh: lineMesh()})
	alice := n.NewUser("alice", 10*host.LamportsPerSOL, "GUEST", 500)
	if _, err := n.SendRoutedFromGuest(alice, "c", "carol", "GUEST", 100, "", fees.PriorityPolicy, 0); err != nil {
		t.Fatal(err)
	}
	n.Run(30 * time.Minute)

	prefixes := make([]string, 0, len(n.Mesh.Links))
	for _, l := range n.Mesh.Links {
		prefixes = append(prefixes, "relayer.link."+l.ID+".")
	}
	snap := n.SnapshotTelemetry()
	perLink := make(map[string]int)
	check := func(key string) {
		owners := 0
		for _, p := range prefixes {
			if strings.HasPrefix(key, p) {
				perLink[p]++
				owners++
			}
		}
		if owners != 1 {
			t.Fatalf("relayer key %q owned by %d links, want exactly 1", key, owners)
		}
	}
	for k := range snap.Counters {
		if strings.HasPrefix(k, "relayer.") {
			check(k)
		}
	}
	for k := range snap.Histograms {
		if strings.HasPrefix(k, "relayer.") {
			check(k)
		}
	}
	// Every link relayer actually emitted under its own namespace.
	for _, p := range prefixes {
		if perLink[p] == 0 {
			t.Fatalf("link namespace %q emitted no metrics", p)
		}
	}
}

// TestMeshStaticDefaultNeverObservesView checks the zero Routing value
// wires the static router and nothing else: a single-path view nothing
// ever feeds, one relayer per link under the pre-race identifiers.
func TestMeshStaticDefaultNeverObservesView(t *testing.T) {
	n := meshNetwork(t, Config{Behaviours: fastFleet(4), Seed: 11, Mesh: lineMesh()})
	n.Run(10 * time.Minute)
	single, err := n.Mesh.View.Route("guest", "c")
	if err != nil {
		t.Fatal(err)
	}
	for seq := uint64(0); seq < 16; seq++ {
		if hops, err := n.Mesh.View.RouteFlow("guest", "c", "alice", seq); err != nil || !reflect.DeepEqual(hops, single) {
			t.Fatalf("static view routes guest->c flow %d via %+v (%v), want its one path %+v", seq, hops, err, single)
		}
	}
	if _, ok := n.SnapshotTelemetry().Counters["mesh.routing.recomputes"]; ok {
		t.Fatal("static mesh scheduled the adaptive health feed")
	}
	for _, l := range n.Mesh.Links {
		if len(l.Nodes) != 1 || l.Nodes[0] != netsim.LinkRelayerNode(l.ID) {
			t.Fatalf("link %s: want single node %v, got %v", l.ID, netsim.LinkRelayerNode(l.ID), l.Nodes)
		}
		if got := len(l.Relayers); got != 1 {
			t.Fatalf("link %s: want 1 relayer, got %d", l.ID, got)
		}
	}
}

// TestMeshRoutingSpecValidation rejects unknown routing modes and
// negative competitor counts.
func TestMeshRoutingSpecValidation(t *testing.T) {
	bad := lineMesh()
	bad.Routing = "fastest"
	if _, err := NewNetwork(Config{Behaviours: fastFleet(4), Seed: 1, Mesh: bad}); err == nil {
		t.Fatal("unknown routing mode accepted")
	}
	neg := lineMesh()
	neg.Links[0].Relayers = -1
	if _, err := NewNetwork(Config{Behaviours: fastFleet(4), Seed: 1, Mesh: neg}); err == nil {
		t.Fatal("negative relayer count accepted")
	}
}

// TestMeshCompetingRelayersShareLink checks the competing-relayer fleet
// wiring: N distinct relayer identities (keys, nodes) racing on one
// channel, with competitor 0 keeping the classic identifiers.
func TestMeshCompetingRelayersShareLink(t *testing.T) {
	spec := lineMesh()
	spec.Links[0].Relayers = 2 // guest—a
	n := meshNetwork(t, Config{Behaviours: fastFleet(4), Seed: 11, Mesh: spec})
	l := n.Mesh.Link("guest", "a")
	if len(l.Relayers) != 2 || len(l.Nodes) != 2 {
		t.Fatalf("want 2 competitors, got %d relayers %d nodes", len(l.Relayers), len(l.Nodes))
	}
	if n.Relayer != l.Relayers[0] {
		t.Fatal("Network.Relayer is not the first guest link's competitor 0")
	}
	if l.Nodes[0] != netsim.LinkRelayerNode(l.ID) {
		t.Fatalf("competitor 0 node changed: %v", l.Nodes[0])
	}
	if l.Nodes[1] == l.Nodes[0] {
		t.Fatal("competitors share a network address")
	}
	if l.Relayers[0].PayeeID() == l.Relayers[1].PayeeID() {
		t.Fatal("competitors share a payee identity")
	}

	// The race still delivers exactly once through the idempotent
	// front-end: duplicates are flagged, tokens arrive once.
	alice := n.NewUser("alice", 10*host.LamportsPerSOL, "GUEST", 1_000)
	rs, err := n.SendRoutedFromGuest(alice, "a", "bob", "GUEST", 400, "", fees.PriorityPolicy, 0)
	if err != nil {
		t.Fatal(err)
	}
	n.Run(30 * time.Minute)
	h0 := rs.Route[0]
	final := rs.DenomTrace[len(rs.DenomTrace)-1]
	if got := n.Mesh.Chain("a").Apps[h0.DestPort].Balance("bob", final); got != 400 {
		t.Fatalf("receiver got %d, want exactly 400", got)
	}
	snap := n.SnapshotTelemetry()
	if lost := snap.Counter("relayer.link." + l.ID + ".lost_race"); lost != 1 {
		t.Fatalf("lost_race = %d, want 1 (one packet, one loser)", lost)
	}
	if snap.Gauges["relayer.link."+l.ID+".backlog"] < 0 {
		t.Fatal("backlog gauge missing from snapshot")
	}
}

// TestMeshAdaptiveRouteFlowSticky checks an adaptive mesh resolves routed
// sends through the live view and that the per-flow ECMP pick is a pure
// function of (sender, flow sequence).
func TestMeshAdaptiveRouteFlowSticky(t *testing.T) {
	spec := MeshSpec{
		Chains: []MeshChainSpec{
			{Name: "guest", Kind: MeshGuest},
			{Name: "a"}, {Name: "b"}, {Name: "c"},
		},
		Links: []MeshLinkSpec{
			{A: "guest", B: "a"},
			{A: "guest", B: "b"},
			{A: "a", B: "c"},
			{A: "b", B: "c"},
		},
		Routing: RoutingAdaptive,
	}
	n := meshNetwork(t, Config{Behaviours: fastFleet(4), Seed: 11, Mesh: spec})
	if n.Mesh.View == nil {
		t.Fatal("adaptive mesh has no view")
	}
	// The view and table agree on reachability from a cold start.
	if _, err := n.Mesh.View.Route("guest", "c"); err != nil {
		t.Fatal(err)
	}
	// RouteFlow is deterministic per (sender, seq).
	r1, err := n.Mesh.View.RouteFlow("guest", "c", "alice", 7)
	if err != nil {
		t.Fatal(err)
	}
	r2, _ := n.Mesh.View.RouteFlow("guest", "c", "alice", 7)
	if fmt.Sprint(r1) != fmt.Sprint(r2) {
		t.Fatal("RouteFlow not sticky for identical flow keys")
	}
}

// TestPairIsTheTwoChainMesh checks the implicit deployment is built as a
// mesh like any other: two chains, one link carrying every declared
// channel, the single-pair accessors viewing that link — and a routed
// send to the counterparty's chain name lands exactly where a plain
// channel-0 InjectTransfer does.
func TestPairIsTheTwoChainMesh(t *testing.T) {
	for _, channels := range [][]ChannelSpec{nil, {{}, {GuestPort: "transfer-1"}, {CPPort: "transfer-1"}}} {
		n := meshNetwork(t, Config{Behaviours: fastFleet(4), Seed: 7, Channels: channels})
		if len(n.Mesh.Chains) != 2 || len(n.Mesh.Links) != 1 {
			t.Fatalf("implicit deployment has %d chains / %d links, want 2 / 1", len(n.Mesh.Chains), len(n.Mesh.Links))
		}
		l := n.Mesh.Links[0]
		want := len(channels)
		if want == 0 {
			want = 1
		}
		if len(l.Channels) != want || len(n.Channels) != want {
			t.Fatalf("link carries %d channels (%d runtimes), want %d", len(l.Channels), len(n.Channels), want)
		}
		if len(l.Relayers) != 1 || l.Relayers[0] != n.Relayer || l.Nodes[0] != netsim.RelayerNode {
			t.Fatalf("link fleet %v at %v is not Network.Relayer at the well-known address", l.Relayers, l.Nodes)
		}
		cp := n.Mesh.Chain(l.A)
		if cp.CP != n.CP || cp.Node != netsim.CPNode || n.Mesh.GuestName != l.B {
			t.Fatalf("link ends %s/%s do not match the pair accessors", l.A, l.B)
		}
		if n.Channels[0].GuestApp != n.GuestApp || n.Channels[0].CPApp != n.CPApp || n.Channels[0].GuestChannel != n.Boot.GuestChannel {
			t.Fatal("GuestApp/CPApp/Boot are not views of channel 0")
		}

		alice := n.NewUser("alice", 10*host.LamportsPerSOL, "GUEST", 1_000)
		rs, err := n.SendRoutedFromGuest(alice, cp.Name, "bob", "GUEST", 100, "", fees.PriorityPolicy, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(rs.Route) != 1 || rs.Route[0].Channel != n.Boot.GuestChannel || rs.Plan.Receiver != "bob" || rs.Plan.Memo != "" {
			t.Fatalf("routed send %+v did not ride channel 0 directly", rs)
		}
		if _, err := n.InjectTransfer(TransferReq{
			Sender: alice.Key.Public(), Receiver: "carol", Denom: "GUEST", Amount: 100, Policy: fees.PriorityPolicy,
		}); err != nil {
			t.Fatal(err)
		}
		n.Run(5 * time.Minute)

		voucher := rs.DenomTrace[1]
		if bob, carol := n.CPApp.Balance("bob", voucher), n.CPApp.Balance("carol", voucher); bob != 100 || carol != 100 {
			t.Fatalf("vouchers: routed %d, injected %d, want 100 each of %s", bob, carol, voucher)
		}
		if got := n.GuestApp.EscrowedAmount(n.Boot.GuestChannel, "GUEST"); got != 200 {
			t.Fatalf("channel-0 escrow = %d, want 200", got)
		}
	}
}
