// Every deployment is a mesh: one guest chain living on the host plus any
// number of Cosmos-style counterparties, joined by links. Each link gets
// its own client pair, connection, channels, relayer fleet, and netsim
// fault profile; one routing view over the graph turns SendRouted into a
// nested forward memo the forwarding middleware unwraps one hop per
// chain. The paper's deployment — guest ↔ one counterparty — is the
// one-link case, and what an empty Config.Mesh normalises to (plan.go).
package core

import (
	"fmt"
	"time"

	"repro/internal/counterparty"
	"repro/internal/fees"
	"repro/internal/ibc"
	"repro/internal/middleware"
	"repro/internal/netsim"
	"repro/internal/relayer"
	"repro/internal/routing"
	"repro/internal/transfer"
)

// MeshChainKind tags a mesh chain as the guest-on-host deployment or a
// Cosmos-style counterparty.
type MeshChainKind string

const (
	// MeshGuest is the guest chain living on the simulated host. A mesh
	// has exactly one (the host machinery — validators, fishermen, crank
	// — is singular).
	MeshGuest MeshChainKind = "guest"
	// MeshCosmos is a Cosmos-style counterparty chain. The zero Kind
	// means cosmos.
	MeshCosmos MeshChainKind = "cosmos"
)

// MeshChainSpec declares one chain of the topology.
type MeshChainSpec struct {
	// Name identifies the chain in links and routes (no spaces).
	Name string
	// Kind is MeshGuest or MeshCosmos ("" = cosmos).
	Kind MeshChainKind
	// CP configures a cosmos chain. Zero fields default like
	// counterparty.DefaultConfig except ChainID (the chain's Name),
	// NumValidators (24 — a mesh runs several chains in one process), and
	// Seed (derived from Config.Seed under "mesh/chain/<name>").
	CP counterparty.Config
}

// MeshLinkSpec declares one bidirectional link of the graph. Links are
// canonicalised (ends swapped so A < B, list sorted) before wiring, so
// declaration order and orientation never change the deployment.
type MeshLinkSpec struct {
	A, B string
	// PortA / PortB are each end's application port ("transfer").
	PortA, PortB ibc.PortID
	Ordering     ibc.Ordering
	Version      string
	// NetA / NetB are per-link fault profiles: NetA shapes traffic
	// between the link's relayer and chain A's front-end (both
	// directions), NetB likewise for chain B. Zero profiles inherit
	// Config.Net.Default.
	NetA, NetB netsim.LinkConfig
	// Relayers is the number of competing relayers racing on this link
	// (0 and 1 both mean the classic single relayer). Every competitor
	// serves the same channel; the idempotent chain front-ends make the
	// duplicate deliveries safe, first-to-deliver claims the ICS-29 fee,
	// and the losers count relayer.link.<id>.lost_race.
	Relayers int
}

// MeshRoutingMode selects how routed sends pick their path.
type MeshRoutingMode string

const (
	// RoutingStatic (the zero value) never feeds the routing view, so
	// routes stay the boot-time hop-count shortest paths.
	RoutingStatic MeshRoutingMode = ""
	// RoutingAdaptive feeds the view live health: per-link costs from
	// relayer telemetry, hysteresis-gated recomputes, and equal-cost
	// multi-path splitting by flow hash.
	RoutingAdaptive MeshRoutingMode = "adaptive"
)

// MeshSpec describes the whole topology.
type MeshSpec struct {
	Chains []MeshChainSpec
	Links  []MeshLinkSpec
	// ForwardTimeout, when set, puts a timestamp timeout on every onward
	// hop the forwarding middleware emits — the knob multi-hop timeout
	// experiments turn. 0 means onward hops never expire.
	ForwardTimeout time.Duration
	// Routing selects static routing (the zero value) or the health-fed
	// adaptive view.
	Routing MeshRoutingMode
	// Cost tunes the adaptive view (fed relayer health every 30 s); zero
	// fields inherit routing.DefaultCostModel. Ignored when static.
	Cost routing.CostModel
	// Fees, when enabled, wraps every mesh port in the ICS-29 fee
	// middleware: senders escrow the schedule per packet, and the relayer
	// that delivers it claims the recv+ack legs (first-to-deliver wins
	// under competing relayers). Onward forwarding hops are exempt.
	Fees middleware.FeeSchedule
}

// MeshChain is one chain's runtime state inside a Network.
type MeshChain struct {
	Name string
	Kind MeshChainKind
	// CP is the chain itself (nil for the guest chain, which lives in
	// Network.Host/Contract).
	CP *counterparty.Chain
	// Apps / Stacks hold the transfer app and its middleware stack per
	// bound port.
	Apps   map[ibc.PortID]*transfer.App
	Stacks map[ibc.PortID]*middleware.Stack
	// Node is the chain's RPC front-end address (netsim.HostNode for the
	// guest chain).
	Node netsim.NodeID

	ep *netsim.Endpoint
	// end is how a relayer reaches this chain (ClientOfPeer is per link).
	end relayer.EndConfig
	// relayerNodes are the link relayers notified of this chain's blocks.
	relayerNodes []netsim.NodeID
	// deliveredBy records which relayer node first delivered each inbound
	// packet (cosmos chains only): the front-end flags later deliveries
	// from other nodes as lost races, and the fee payee resolver pays the
	// recorded winner.
	deliveredBy map[counterparty.RecvKey]netsim.NodeID
}

// MeshLink is one wired link: canonical ends, the channels the handshakes
// opened, and the relayer fleet serving them.
type MeshLink struct {
	// ID is the canonical "<a>-<b>" identifier (A < B).
	ID   string
	A, B string
	// Channels names each opened channel by both ends' (port, channel),
	// in declaration order. Routes ride Channels[0].
	Channels []routing.Link
	// Relayers is the fleet racing on the link (Relayers[0] is the
	// primary); Nodes[i] is Relayers[i]'s network address.
	Relayers []*relayer.Relayer
	Nodes    []netsim.NodeID
	// MetricsNS prefixes the fleet's metrics ("relayer" on the implicit
	// pair, "relayer.link.<id>" on a declared mesh).
	MetricsNS string

	// clientOnA / clientOnB are each end's light client of the other. A
	// guest link also keeps its bootstrap identifiers in boot, to open
	// further channels over the same connection.
	clientOnA, clientOnB ibc.ClientID
	boot                 *relayer.Result
}

// Health aggregates the link's live health across its relayer fleet:
// mean delivery-latency EWMA and summed backlog.
func (l *MeshLink) Health() routing.LinkHealth {
	var agg routing.LinkHealth
	var lat float64
	for _, r := range l.Relayers {
		h := r.Health()
		lat += h.Latency
		agg.Backlog += h.Backlog
	}
	agg.Latency = lat / float64(len(l.Relayers))
	return agg
}

// MeshRuntime is the topology view of a Network.
type MeshRuntime struct {
	Spec MeshSpec
	// View routes every SendRouted. A static spec never feeds it health,
	// so it keeps one hop-count shortest path per chain pair; an adaptive
	// spec samples the relayer fleets into it every 30 s.
	View *routing.View
	// Chains indexes runtime state by chain name; Order lists the names
	// sorted.
	Chains map[string]*MeshChain
	Order  []string
	Links  []*MeshLink
	// GuestName is the guest chain's name in the graph.
	GuestName string
	// ForwardAccount is the module account routed sends address on
	// intermediate chains.
	ForwardAccount string

	// flowSeq numbers routed sends for the ECMP flow hash.
	flowSeq uint64
}

// Chain returns one chain's runtime state (nil when absent).
func (m *MeshRuntime) Chain(name string) *MeshChain { return m.Chains[name] }

// Link returns the link between a and b in either orientation (nil when
// absent).
func (m *MeshRuntime) Link(a, b string) *MeshLink {
	id := routing.LinkID(a, b)
	for _, l := range m.Links {
		if l.ID == id {
			return l
		}
	}
	return nil
}

// linkCfgSet reports whether a per-link fault profile was declared.
func linkCfgSet(c netsim.LinkConfig) bool {
	return c.Latency != nil || c.Drop != 0 || c.Duplicate != 0 || c.Reorder != 0
}

// wireFees points every fee middleware at the relayer fleets: the payee
// resolver pays whichever competitor the destination chain recorded as
// first deliverer, the primary relayer of the source end's link is the
// fallback (timeouts, and deliveries to the guest, which keeps no
// registry), and every relayer sweeps every escrow it can earn from. It
// reports whether any stack escrows fees.
func (n *Network) wireFees() bool {
	mesh := n.Mesh
	// Source channel end -> peer chain and the link's primary payee, so a
	// settling packet finds the delivery registry its destination chain
	// keeps.
	type chanEnd struct {
		chain   string
		port    ibc.PortID
		channel ibc.ChannelID
	}
	type linkEnd struct {
		peer         *MeshChain
		primaryPayee string
	}
	ends := make(map[chanEnd]linkEnd)
	// Relayer node -> payee identity, across every link's fleet.
	payeeOf := make(map[netsim.NodeID]string)
	for _, l := range mesh.Links {
		for ri, r := range l.Relayers {
			payeeOf[l.Nodes[ri]] = r.PayeeID()
		}
		primary := l.Relayers[0].PayeeID()
		for _, ch := range l.Channels {
			ends[chanEnd{l.A, ch.PortA, ch.ChannelA}] = linkEnd{mesh.Chains[l.B], primary}
			ends[chanEnd{l.B, ch.PortB, ch.ChannelB}] = linkEnd{mesh.Chains[l.A], primary}
		}
	}
	present := false
	for _, name := range mesh.Order {
		for _, stack := range mesh.Chains[name].Stacks {
			fm, ok := stack.Middleware("fees").(*middleware.Fees)
			if !ok || fm == nil {
				continue
			}
			present = true
			fm.SetPayeeResolver(func(p ibc.Packet) string {
				end, ok := ends[chanEnd{name, p.SourcePort, p.SourceChannel}]
				if !ok {
					return ""
				}
				if payee := payeeOf[end.peer.deliveredBy[counterparty.RecvKeyOf(&p)]]; payee != "" {
					return payee
				}
				return end.primaryPayee
			})
			// Every competitor sweeps: Claim is payee-keyed, so
			// over-registration never pays the wrong relayer.
			for _, l := range mesh.Links {
				for _, r := range l.Relayers {
					r.RegisterFeeClaimer(fm)
				}
			}
		}
	}
	return present
}

// ClaimMeshFees makes every link relayer sweep its accrued ICS-29 fees
// (experiments also call it once at drain).
func (n *Network) ClaimMeshFees() {
	for _, l := range n.Mesh.Links {
		for _, r := range l.Relayers {
			r.ClaimFees()
		}
	}
}

// DegradeMeshLink reshapes the fault profile between the link's relayer
// fleet and both chain ends at runtime — the knob adaptive-routing
// experiments turn mid-run to make an arm unhealthy (and later heal it).
func (n *Network) DegradeMeshLink(a, b string, lc netsim.LinkConfig) error {
	l := n.Mesh.Link(a, b)
	if l == nil {
		return fmt.Errorf("core: no mesh link %s-%s", a, b)
	}
	for _, node := range l.Nodes {
		n.Net.SetLinkBoth(node, n.Mesh.Chains[l.A].Node, lc)
		n.Net.SetLinkBoth(node, n.Mesh.Chains[l.B].Node, lc)
	}
	return nil
}

// RoutedSend reports one routed transfer: the hop sequence, the composed
// forward plan, and the denom held on each chain along the way
// (DenomTrace[i] is the denom after hop i; the last entry is what the
// final receiver gets).
type RoutedSend struct {
	Route      []routing.Hop
	Plan       routing.ForwardPlan
	DenomTrace []string
}

// SendRouted sends amount of denom from sender on chain src to receiver
// on chain dst, composing the nested forward memo for every intermediate
// hop. src must be a cosmos chain — guest-side sends go through
// SendRoutedFromGuest, which signs a host transaction.
func (n *Network) SendRouted(src, dst, sender, receiver, denom string, amount uint64, memo string, timeout time.Duration) (*RoutedSend, error) {
	mc := n.Mesh.Chains[src]
	if mc == nil {
		return nil, fmt.Errorf("core: unknown mesh chain %q", src)
	}
	if mc.Kind == MeshGuest {
		return nil, fmt.Errorf("core: chain %q is the guest chain; use SendRoutedFromGuest", src)
	}
	rs, err := n.planRouted(src, dst, sender, receiver, denom, memo)
	if err != nil {
		return nil, err
	}
	h0 := rs.Route[0]
	app := mc.Apps[h0.Port]
	if app == nil {
		return nil, fmt.Errorf("core: chain %q has no app on port %q", src, h0.Port)
	}
	data := &transfer.PacketData{
		Denom:    denom,
		Amount:   amount,
		Sender:   sender,
		Receiver: rs.Plan.Receiver,
		Memo:     rs.Plan.Memo,
	}
	if _, err := n.cosmosSend(mc.CP, app, h0.Port, h0.Channel, data, timeout); err != nil {
		return nil, err
	}
	return rs, nil
}

// SendRoutedFromGuest sends from a guest-side user towards chain dst,
// riding InjectTransfer on the guest channel the route's first hop names.
func (n *Network) SendRoutedFromGuest(u *User, dst, receiver, denom string, amount uint64, memo string, policy fees.Policy, timeout time.Duration) (*RoutedSend, error) {
	rs, err := n.planRouted(n.Mesh.GuestName, dst, u.Key.Public().String(), receiver, denom, memo)
	if err != nil {
		return nil, err
	}
	h0 := rs.Route[0]
	ch := -1
	for i, rt := range n.Channels {
		if rt.Spec.GuestPort == h0.Port && rt.GuestChannel == h0.Channel {
			ch = i
			break
		}
	}
	if ch < 0 {
		return nil, fmt.Errorf("core: no guest link for hop %s/%s", h0.Port, h0.Channel)
	}
	if _, err := n.InjectTransfer(TransferReq{
		Channel:  ch,
		Sender:   u.Key.Public(),
		Receiver: rs.Plan.Receiver,
		Denom:    denom,
		Amount:   amount,
		Memo:     rs.Plan.Memo,
		Policy:   policy,
		Timeout:  timeout,
	}); err != nil {
		return nil, err
	}
	return rs, nil
}

// planRouted resolves the route, forward plan, and denom trace for one
// send through the routing view, hashing (sender, flow sequence) over the
// equal-cost path set so an adaptive mesh splits flows deterministically
// across healthy arms (a static view keeps a single path per pair).
func (n *Network) planRouted(src, dst, sender, receiver, denom, memo string) (*RoutedSend, error) {
	seq := n.Mesh.flowSeq
	n.Mesh.flowSeq++
	route, err := n.Mesh.View.RouteFlow(src, dst, sender, seq)
	if err != nil {
		return nil, err
	}
	return &RoutedSend{
		Route:      route,
		Plan:       routing.Plan(route, receiver, n.Mesh.ForwardAccount, memo),
		DenomTrace: routing.TraceDenom(route, denom),
	}, nil
}
