package experiments

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/fees"
	"repro/internal/host"
	"repro/internal/ibc"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/transfer"
)

// MeshConfig parameterises the N-chain mesh scenario: a 4-chain topology
// (line or diamond) with routed multi-hop transfers under per-link chaos.
type MeshConfig struct {
	// Topology selects the link graph: "line" (guest—a—b—c) or
	// "diamond" (guest—a, guest—b, a—c, b—c).
	Topology string
	// PacketsPerFlow is the number of transfers each flow submits.
	PacketsPerFlow int
	// Duration of the simulated window the sends are spread across.
	Duration time.Duration
	// Seed drives the workload and every actor's derived streams.
	Seed int64
	// Chaos injects the per-link fault profiles: 5% drop plus an
	// asymmetric latency pair on every link (each direction draws from
	// a different range, and no two links share one).
	Chaos bool
}

// DefaultMeshConfig returns the acceptance scenario: the 4-chain line
// under chaos, 6 packets per flow over 6 simulated hours.
func DefaultMeshConfig() MeshConfig {
	return MeshConfig{
		Topology:       "line",
		PacketsPerFlow: 6,
		Duration:       6 * time.Hour,
		Seed:           1,
		Chaos:          true,
	}
}

// MeshFlow is one traffic stream: Src and Dst name mesh chains, and the
// route between them is whatever the routing table resolves.
type MeshFlow struct {
	Src, Dst string
}

// MeshFlowReport is the per-flow outcome.
type MeshFlowReport struct {
	Src, Dst string
	// Path is the chain sequence the route traversed (Src ... Dst).
	Path []string
	Hops int
	// Sent / SentTokens count the admitted transfers and their token sum
	// (each flow moves its own denom, so per-hop escrows telescope
	// exactly).
	Sent       int
	SentTokens uint64
	// Received is the token sum credited to the flow's receiver on Dst.
	Received uint64
	// Delivered counts the final-hop acknowledgements observed on Dst.
	Delivered int
	// EscrowByHop is the source-side escrow at each hop after the run;
	// exact conservation means every entry equals SentTokens.
	EscrowByHop []uint64
	// E2EP50s / E2EP99s are end-to-end latency percentiles in seconds of
	// virtual time, submission to final-hop acknowledgement write.
	E2EP50s, E2EP99s float64
	// Conserved reports SentTokens == Received and every hop escrow exact.
	Conserved bool
}

// MeshLinkReport is the per-link relayer outcome, read from the link's
// private metric namespace (relayer.link.<id>.*). Every link runs the same
// relayer engine, so every link reports the same keys.
type MeshLinkReport struct {
	ID string
	// ClientUpdates counts the client updates the engine issued, both
	// directions (a guest end's own header pushes are not among them).
	ClientUpdates uint64
	// Delivered / Acks count packet deliveries and acknowledgement
	// round-trips relayed over the link, both directions.
	Delivered uint64
	Acks      uint64
	// UpdatesPerPacket is ClientUpdates / max(Delivered, 1) — the
	// amortisation figure, per link.
	UpdatesPerPacket float64
	// NetRetries counts reliable-call re-issues the chaos forced.
	NetRetries uint64
	// HopP50Ms / HopP99Ms summarise the scan-to-delivery latency of
	// packets landing on the link's cosmos ends, in milliseconds.
	HopP50Ms, HopP99Ms float64
}

// MeshResult aggregates one mesh run.
type MeshResult struct {
	Topology string
	Chains   []string
	Flows    []MeshFlowReport
	Links    []MeshLinkReport
	// TotalPackets sums Sent over flows.
	TotalPackets int
	// Conserved reports every flow conserved exactly at every hop.
	Conserved bool
	// Fingerprint digests the run for determinism checks: two runs with
	// the same config must produce identical fingerprints.
	Fingerprint string
}

// LineMeshTopology is the 4-chain line guest — a — b — c: the longest
// route is 3 hops, so a guest transfer to c crosses two forwarding
// chains.
func LineMeshTopology() core.MeshSpec {
	return core.MeshSpec{
		Chains: []core.MeshChainSpec{
			{Name: "guest", Kind: core.MeshGuest},
			{Name: "a"},
			{Name: "b"},
			{Name: "c"},
		},
		Links: []core.MeshLinkSpec{
			{A: "guest", B: "a"},
			{A: "a", B: "b"},
			{A: "b", B: "c"},
		},
	}
}

// DiamondMeshTopology is the 4-chain diamond: guest — {a, b} — c. Two
// equal-length routes join guest and c; the routing table breaks the tie
// deterministically, so every run picks the same one.
func DiamondMeshTopology() core.MeshSpec {
	return core.MeshSpec{
		Chains: []core.MeshChainSpec{
			{Name: "guest", Kind: core.MeshGuest},
			{Name: "a"},
			{Name: "b"},
			{Name: "c"},
		},
		Links: []core.MeshLinkSpec{
			{A: "guest", B: "a"},
			{A: "guest", B: "b"},
			{A: "a", B: "c"},
			{A: "b", B: "c"},
		},
	}
}

// MeshTopology resolves a topology name to its spec.
func MeshTopology(name string) (core.MeshSpec, error) {
	switch name {
	case "", "line":
		return LineMeshTopology(), nil
	case "diamond":
		return DiamondMeshTopology(), nil
	}
	return core.MeshSpec{}, fmt.Errorf("experiments: unknown mesh topology %q (want line or diamond)", name)
}

// meshFlows returns the traffic streams each topology exercises. Every
// flow's destination is a cosmos chain so the final-hop acknowledgement
// is observable on a counterparty handler bus.
func meshFlows(topology string) []MeshFlow {
	switch topology {
	case "diamond":
		return []MeshFlow{
			{Src: "guest", Dst: "c"}, // 2 hops through a forwarding chain
			{Src: "a", Dst: "c"},     // direct
			{Src: "b", Dst: "c"},     // direct
		}
	default: // line
		return []MeshFlow{
			{Src: "guest", Dst: "c"}, // 3 hops, two forwarding chains
			{Src: "a", Dst: "c"},     // 2 hops
			{Src: "c", Dst: "a"},     // 2 hops, against the first two
		}
	}
}

// applyMeshChaos sets the per-link fault profiles: every link drops 5%
// of messages in both directions, and each direction of each link draws
// latency from its own range — the asymmetry the acceptance scenario
// calls for. The ranges are a pure function of the link's position so
// the profile is part of the topology, not of any RNG stream.
func applyMeshChaos(spec *core.MeshSpec) {
	for i := range spec.Links {
		l := &spec.Links[i]
		step := time.Duration(i) * 15 * time.Millisecond
		l.NetA = netsim.LinkConfig{
			Latency: sim.Uniform{Min: 20*time.Millisecond + step, Max: 90*time.Millisecond + 2*step},
			Drop:    0.05,
		}
		l.NetB = netsim.LinkConfig{
			Latency: sim.Uniform{Min: 60*time.Millisecond + step, Max: 200*time.Millisecond + 2*step},
			Drop:    0.05,
		}
	}
}

// RunMesh executes the mesh scenario: it builds the topology, wires one
// relayer per link, spreads PacketsPerFlow routed transfers per flow
// across the window (each flow in its own denom), and verifies exact
// escrow/voucher conservation at every hop plus per-link client-update
// amortisation and end-to-end latency.
func RunMesh(cfg MeshConfig) (*MeshResult, error) {
	if cfg.PacketsPerFlow <= 0 {
		cfg.PacketsPerFlow = 1
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 6 * time.Hour
	}
	spec, err := MeshTopology(cfg.Topology)
	if err != nil {
		return nil, err
	}
	if cfg.Chaos {
		applyMeshChaos(&spec)
	}
	flows := meshFlows(cfg.Topology)

	net, err := core.NewNetwork(core.Config{
		Seed:       cfg.Seed,
		Mesh:       spec,
		Behaviours: HealthyBehaviours(8),
	})
	if err != nil {
		return nil, err
	}

	// Each flow moves its own denom so the per-hop escrows telescope
	// exactly: hop i of flow f escrows precisely f's tokens in f's
	// i-th trace denom, with no cross-flow mixing.
	type flowState struct {
		denom      string
		receiver   string
		user       *core.User // guest-source flows
		rs         *core.RoutedSend
		sent       int
		sentTokens uint64
		delivered  int
		latencies  []float64 // seconds, submission → final WriteAck
	}
	states := make([]*flowState, len(flows))
	sendAt := make(map[string]time.Duration)  // memo tag → virtual send time
	tagFlow := make(map[string]int)           // memo tag → flow index
	for i, f := range flows {
		fs := &flowState{
			denom:    fmt.Sprintf("MESH%d", i),
			receiver: fmt.Sprintf("mesh-recv-%d", i),
		}
		if f.Src == "guest" {
			fs.user = net.NewUser(fmt.Sprintf("mesh-sender-%d", i), 10_000*host.LamportsPerSOL, fs.denom, 1<<40)
			// NewUser mints on the first guest link's app; a diamond has
			// two guest links and the route picks one, so fund them all.
			for _, rt := range net.Channels {
				rt.GuestApp.Mint(fs.user.Key.Public().String(), fs.denom, 1<<40)
			}
		} else {
			net.Mesh.Chain(f.Src).Apps["transfer"].Mint(fmt.Sprintf("mesh-sender-%d", i), fs.denom, 1<<40)
		}
		states[i] = fs
	}

	// Latency taps: every flow terminates on a cosmos chain, and the
	// final hop's packet carries the flow's memo tag (routing.Plan nests
	// the caller memo innermost). Subscribe each destination handler bus
	// once; the bus runs callbacks under its lock — record only.
	epoch := net.Sched.Now()
	for _, dst := range uniqueDsts(flows) {
		mc := net.Mesh.Chain(dst)
		mc.CP.Handler().Events().Subscribe(func(ev telemetry.Event) {
			wa, ok := ev.(ibc.EventWriteAck)
			if !ok || !transfer.IsSuccessAck(wa.Ack) {
				return
			}
			d, err := transfer.UnmarshalPacketData(wa.Packet.Data)
			if err != nil {
				return
			}
			fi, ok := tagFlow[d.Memo]
			if !ok {
				return
			}
			states[fi].delivered++
			states[fi].latencies = append(states[fi].latencies,
				(net.Sched.Now().Sub(epoch) - sendAt[d.Memo]).Seconds())
			delete(sendAt, d.Memo)
		})
	}

	rng := rand.New(rand.NewSource(sim.DeriveSeed(cfg.Seed, "experiments/mesh")))
	for j := 0; j < cfg.PacketsPerFlow; j++ {
		base := cfg.Duration * time.Duration(j+1) / time.Duration(cfg.PacketsPerFlow+2)
		jitter := time.Duration(rng.Int63n(int64(time.Minute)))
		for i := range flows {
			i, f := i, flows[i]
			amount := 1 + uint64(rng.Intn(200))
			tag := fmt.Sprintf("mesh/%d/%d", i, j)
			net.Sched.After(base+jitter, func() {
				fs := states[i]
				var rs *core.RoutedSend
				var err error
				if f.Src == "guest" {
					rs, err = net.SendRoutedFromGuest(fs.user, f.Dst, fs.receiver, fs.denom, amount, tag, fees.BundlePolicy, 0)
				} else {
					rs, err = net.SendRouted(f.Src, f.Dst, fmt.Sprintf("mesh-sender-%d", i), fs.receiver, fs.denom, amount, tag, 0)
				}
				if err != nil {
					return
				}
				fs.rs = rs
				fs.sent++
				fs.sentTokens += amount
				tagFlow[tag] = i
				sendAt[tag] = net.Sched.Now().Sub(epoch)
			})
		}
	}

	// Run the window plus drain time for retries and multi-hop
	// round-trips under chaos.
	net.Run(cfg.Duration + 3*time.Hour)

	snap := net.SnapshotTelemetry()
	res := &MeshResult{
		Topology: cfg.Topology,
		Chains:   net.Mesh.View.Chains(),
	}
	if res.Topology == "" {
		res.Topology = "line"
	}
	res.Conserved = true
	var fp strings.Builder
	for i, f := range flows {
		fs := states[i]
		rep := MeshFlowReport{
			Src: f.Src, Dst: f.Dst,
			Sent:       fs.sent,
			SentTokens: fs.sentTokens,
			Delivered:  fs.delivered,
		}
		if fs.rs != nil {
			rep.Hops = len(fs.rs.Route)
			rep.Path = append(rep.Path, f.Src)
			for _, h := range fs.rs.Route {
				rep.Path = append(rep.Path, h.To)
			}
			last := fs.rs.Route[len(fs.rs.Route)-1]
			final := fs.rs.DenomTrace[len(fs.rs.DenomTrace)-1]
			rep.Received = net.Mesh.Chain(f.Dst).Apps[last.DestPort].Balance(fs.receiver, final)
			rep.Conserved = rep.Received == fs.sentTokens
			for hi, h := range fs.rs.Route {
				app := net.Mesh.Chain(h.From).Apps[h.Port]
				escrow := app.EscrowedAmount(h.Channel, fs.rs.DenomTrace[hi])
				rep.EscrowByHop = append(rep.EscrowByHop, escrow)
				if escrow != fs.sentTokens {
					rep.Conserved = false
				}
				// Forwarding chains must end flat: nothing stranded in
				// the module account.
				if h.From != net.Mesh.GuestName && h.From != f.Src {
					if app.Balance(net.Mesh.ForwardAccount, fs.rs.DenomTrace[hi]) != 0 {
						rep.Conserved = false
					}
				}
			}
		}
		if len(fs.latencies) > 0 {
			rep.E2EP50s = stats.QuantileUnsorted(fs.latencies, 0.50)
			rep.E2EP99s = stats.QuantileUnsorted(fs.latencies, 0.99)
		}
		res.Conserved = res.Conserved && rep.Conserved
		res.TotalPackets += rep.Sent
		res.Flows = append(res.Flows, rep)
		fmt.Fprintf(&fp, "flow%d:%s>%s path=%s sent=%d tokens=%d recv=%d delivered=%d p50=%.3fs p99=%.3fs|",
			i, f.Src, f.Dst, strings.Join(rep.Path, "-"), rep.Sent, rep.SentTokens, rep.Received, rep.Delivered, rep.E2EP50s, rep.E2EP99s)
	}
	for _, l := range net.Mesh.Links {
		ns := "relayer.link." + l.ID + "."
		rep := MeshLinkReport{
			ID:            l.ID,
			ClientUpdates: snap.Counter(ns + "client_updates"),
			Delivered:     snap.Counter(ns + "delivered"),
			Acks:          snap.Counter(ns + "acks"),
			NetRetries:    snap.Counter(ns + "net_retries"),
		}
		if lat := snap.HistogramSamples(ns + "hop.latency_s"); len(lat) > 0 {
			rep.HopP50Ms = 1000 * stats.QuantileUnsorted(lat, 0.50)
			rep.HopP99Ms = 1000 * stats.QuantileUnsorted(lat, 0.99)
		}
		if rep.Delivered > 0 {
			rep.UpdatesPerPacket = float64(rep.ClientUpdates) / float64(rep.Delivered)
		} else {
			rep.UpdatesPerPacket = float64(rep.ClientUpdates)
		}
		res.Links = append(res.Links, rep)
		fmt.Fprintf(&fp, "link:%s updates=%d delivered=%d acks=%d retries=%d|",
			l.ID, rep.ClientUpdates, rep.Delivered, rep.Acks, rep.NetRetries)
	}
	fmt.Fprintf(&fp, "conserved=%v packets=%d", res.Conserved, res.TotalPackets)
	res.Fingerprint = fp.String()
	return res, nil
}

// uniqueDsts lists each flow destination once, in flow order.
func uniqueDsts(flows []MeshFlow) []string {
	seen := make(map[string]bool)
	var out []string
	for _, f := range flows {
		if !seen[f.Dst] {
			seen[f.Dst] = true
			out = append(out, f.Dst)
		}
	}
	sort.Strings(out)
	return out
}
