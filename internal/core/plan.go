// Normalisation: every deployment is a mesh. NewNetwork builds from one
// internal shape, the plan — chains with their bound ports and declared
// middleware stacks, links with their channel lists and relayer fleets.
// An empty Config.Mesh normalises to the paper's deployment, the
// two-chain mesh guest ↔ cp joined by one link carrying Config.Channels;
// an explicit MeshSpec normalises into the same shape. Everything that
// distinguishes the two — node addresses, metric namespaces, key names,
// seed labels, counterparty defaults — is data filled in here, so the
// builder below never asks which kind of deployment it is wiring.
package core

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/counterparty"
	"repro/internal/guest"
	"repro/internal/host"
	"repro/internal/ibc"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// plan is the normalised deployment NewNetwork builds.
type plan struct {
	// spec is the canonical exported form, reported as MeshRuntime.Spec.
	spec   MeshSpec
	chains []chainPlan // sorted by name
	links  []linkPlan  // canonical order, parallel to spec.Links
}

// chainPlan declares one chain.
type chainPlan struct {
	name  string
	guest bool
	// cp configures a cosmos chain, defaults applied; ibcNS prefixes its
	// handler metrics ("" = the counterparty package default).
	cp    counterparty.Config
	ibcNS string
	// node is the chain's RPC front-end address (the host's for the guest).
	node netsim.NodeID
	// ports lists the bound ports in first-use order.
	ports []portPlan
}

// portPlan declares one bound port and the middleware stack wrapped
// around its transfer app, outermost first.
type portPlan struct {
	port  ibc.PortID
	stack []mwPlan
}

// mwPlan is a MiddlewareSpec plus what the wiring decides for it.
type mwPlan struct {
	MiddlewareSpec
	ns string // telemetry namespace
	// exemptSender escrows no fee (fees); timeout expires onward hops
	// (forward). Zero values switch either off.
	exemptSender string
	timeout      time.Duration
}

// linkPlan declares one link: its channels (cosmos↔cosmos links carry
// exactly one) and the relayer fleet racing on them.
type linkPlan struct {
	id, a, b   string
	channels   []channelPlan
	netA, netB netsim.LinkConfig
	// metricsNS prefixes every metric the link's relayers write; strict
	// relayers ignore packets on routes they do not serve.
	metricsNS string
	strict    bool
	fleet     []relayerPlan // competitor 0 (the primary) first
}

// channelPlan declares one channel of a link.
type channelPlan struct {
	portA, portB ibc.PortID
	ordering     ibc.Ordering
	version      string
	// spec is what Network.Channels reports for a guest link's channel.
	spec ChannelSpec
}

// relayerPlan is one competitor's identity: network address, the name its
// key (host fee payer and ICS-29 payee) derives from, and its pacing seed.
type relayerPlan struct {
	node     netsim.NodeID
	identity string
	seed     int64
}

// What every deployment shares: the names of the implicit pair's two
// chains, the application port a spec that names none binds, the module
// account forwarding hops pay through, and the cadence at which relayer
// health feeds an adaptive routing view.
const (
	pairGuestName             = "guest"
	pairCPName                = "cp"
	defaultPort    ibc.PortID = "transfer"
	forwardAccount            = "forward-module"
	healthInterval            = 30 * time.Second
)

// genesis is the virtual time every deployment starts at.
var genesis = time.Date(2024, 9, 1, 0, 0, 0, 0, time.UTC)

// normalize fills cfg's deployment-wide defaults and returns the plan.
func normalize(cfg *Config) (*plan, error) {
	if cfg.GuestParams == (guest.Params{}) {
		cfg.GuestParams = guest.DefaultParams()
	}
	if len(cfg.Behaviours) == 0 {
		cfg.Behaviours = DeploymentBehaviours()
		if len(cfg.Stakes) == 0 {
			cfg.Stakes = DeploymentStakes()
		}
		// The §V-C incident ships with the default fleet: validator #1's
		// ~10 h outage is a scripted crash window, not a latency tail.
		cfg.Net.Crashes = append(cfg.Net.Crashes, DeploymentOutage())
	}
	if len(cfg.Stakes) == 0 {
		cfg.Stakes = DefaultStakes(len(cfg.Behaviours))
	}
	if len(cfg.Stakes) != len(cfg.Behaviours) {
		return nil, errors.New("core: stakes and behaviours length mismatch")
	}
	if cfg.HostProfile.Name == "" {
		cfg.HostProfile = host.SolanaProfile()
	}
	if len(cfg.Mesh.Chains) == 0 && len(cfg.Mesh.Links) == 0 {
		return pairPlan(cfg)
	}
	return meshPlan(cfg)
}

// pairPlan normalises the implicit deployment: guest ↔ cp over one link
// whose channels are Config.Channels (or one unordered "transfer"
// channel), each port carrying exactly the middleware its first
// ChannelSpec declares, served by the one relayer at the well-known
// "relayer"/"cp" addresses.
func pairPlan(cfg *Config) (*plan, error) {
	if cfg.CP.ChainID == "" {
		cfg.CP = counterparty.DefaultConfig()
	}
	specs := append([]ChannelSpec(nil), cfg.Channels...)
	if len(specs) == 0 {
		specs = []ChannelSpec{{}}
	}

	guestChain := chainPlan{name: pairGuestName, guest: true, node: netsim.HostNode}
	cpChain := chainPlan{name: pairCPName, cp: cfg.CP, node: netsim.CPNode}
	// declare binds port on chain with the stack its first spec lists;
	// stacks are per port, so a later spec may only repeat the port bare.
	declare := func(chain *chainPlan, side string, i int, port ibc.PortID, mws []MiddlewareSpec) error {
		for _, pp := range chain.ports {
			if pp.port == port {
				if len(mws) > 0 {
					return fmt.Errorf("core: channel %d re-declares middleware for %s port %q (stacks are per port; declare them on the port's first channel)", i, side, port)
				}
				return nil
			}
		}
		pp := portPlan{port: port}
		for _, ms := range mws {
			pp.stack = append(pp.stack, mwPlan{MiddlewareSpec: ms, ns: side + ".mw." + string(ms.Kind)})
		}
		chain.ports = append(chain.ports, pp)
		return nil
	}
	// The link is canonical like any other: "cp" sorts before "guest", so
	// the counterparty is end A. The relayer's pacing stream hangs off the
	// scenario seed, so changing Config.Seed varies every actor's
	// randomness coherently.
	link := linkPlan{
		id: pairCPName + "-" + pairGuestName, a: pairCPName, b: pairGuestName,
		metricsNS: "relayer",
		fleet:     []relayerPlan{{node: netsim.RelayerNode, identity: "relayer", seed: sim.DeriveSeed(cfg.Seed, "relayer")}},
	}
	for i, sp := range specs {
		if sp.GuestPort == "" {
			sp.GuestPort = defaultPort
		}
		if sp.CPPort == "" {
			sp.CPPort = defaultPort
		}
		if err := declare(&guestChain, "guest", i, sp.GuestPort, sp.GuestMiddleware); err != nil {
			return nil, err
		}
		if err := declare(&cpChain, "cp", i, sp.CPPort, sp.CPMiddleware); err != nil {
			return nil, err
		}
		link.channels = append(link.channels, channelPlan{
			portA: sp.CPPort, portB: sp.GuestPort, ordering: sp.Ordering, version: sp.Version, spec: sp,
		})
	}
	ch0 := link.channels[0]
	return &plan{
		spec: MeshSpec{
			Chains: []MeshChainSpec{
				{Name: pairCPName, Kind: MeshCosmos, CP: cfg.CP},
				{Name: pairGuestName, Kind: MeshGuest},
			},
			Links: []MeshLinkSpec{{
				A: link.a, B: link.b, PortA: ch0.portA, PortB: ch0.portB,
				Ordering: ch0.ordering, Version: ch0.version, Relayers: 1,
			}},
		},
		chains: []chainPlan{cpChain, guestChain},
		links:  []linkPlan{link},
	}, nil
}

// meshPlan normalises an explicit MeshSpec: chains sorted by name, links
// canonicalised (A < B, sorted) so two configs declaring the same
// topology in different order wire identically; every port wrapped in
// forwarding (plus fees when the spec escrows) so any chain can serve as
// an intermediate hop; one relayer fleet per link under per-link
// addresses, namespaces and seed streams.
func meshPlan(cfg *Config) (*plan, error) {
	spec := cfg.Mesh
	if len(spec.Chains) == 0 || len(spec.Links) == 0 {
		return nil, errors.New("core: mesh needs chains and links")
	}
	if spec.Routing != RoutingStatic && spec.Routing != RoutingAdaptive {
		return nil, fmt.Errorf("core: unknown mesh routing mode %q", spec.Routing)
	}

	p := &plan{}
	specChains := append([]MeshChainSpec(nil), spec.Chains...)
	sort.Slice(specChains, func(i, j int) bool { return specChains[i].Name < specChains[j].Name })
	byName := make(map[string]*chainPlan, len(specChains))
	chainIDs := make(map[string]string)
	guests := 0
	p.chains = make([]chainPlan, len(specChains))
	for i := range specChains {
		sp := &specChains[i]
		if sp.Name == "" {
			return nil, errors.New("core: mesh chain needs a name")
		}
		if strings.ContainsRune(sp.Name, ' ') {
			return nil, fmt.Errorf("core: mesh chain name %q contains a space", sp.Name)
		}
		if _, dup := byName[sp.Name]; dup {
			return nil, fmt.Errorf("core: duplicate mesh chain %q", sp.Name)
		}
		if sp.Kind == "" {
			sp.Kind = MeshCosmos
		}
		cp := &p.chains[i]
		cp.name = sp.Name
		switch sp.Kind {
		case MeshGuest:
			guests++
			cp.guest = true
			cp.node = netsim.HostNode
		case MeshCosmos:
			cc := sp.CP
			if cc.ChainID == "" {
				cc.ChainID = sp.Name
			}
			if prev, dup := chainIDs[cc.ChainID]; dup {
				return nil, fmt.Errorf("core: mesh chains %q and %q share chain ID %q", prev, sp.Name, cc.ChainID)
			}
			chainIDs[cc.ChainID] = sp.Name
			if cc.NumValidators == 0 {
				cc.NumValidators = 24
			}
			if cc.BlockInterval == 0 {
				cc.BlockInterval = 6 * time.Second
			}
			if cc.ParticipationMin == 0 {
				cc.ParticipationMin = 0.68
			}
			if cc.Seed == 0 {
				cc.Seed = sim.DeriveSeed(cfg.Seed, "mesh/chain/"+sp.Name)
			}
			cp.cp = cc
			cp.ibcNS = "mesh." + sp.Name + ".ibc"
			cp.node = netsim.ChainNode(sp.Name)
		default:
			return nil, fmt.Errorf("core: mesh chain %q: unknown kind %q", sp.Name, sp.Kind)
		}
		byName[sp.Name] = cp
	}
	if guests != 1 {
		return nil, fmt.Errorf("core: mesh needs exactly one guest chain, got %d", guests)
	}

	links := append([]MeshLinkSpec(nil), spec.Links...)
	for i := range links {
		l := &links[i]
		if l.PortA == "" {
			l.PortA = defaultPort
		}
		if l.PortB == "" {
			l.PortB = defaultPort
		}
		if l.Ordering == 0 {
			l.Ordering = ibc.Unordered
		}
		if l.A == l.B {
			return nil, fmt.Errorf("core: mesh link %q-%q joins a chain to itself", l.A, l.B)
		}
		if l.Relayers < 0 {
			return nil, fmt.Errorf("core: mesh link %s-%s: negative relayer count %d", l.A, l.B, l.Relayers)
		}
		if l.Relayers == 0 {
			l.Relayers = 1
		}
		if byName[l.A] == nil {
			return nil, fmt.Errorf("core: mesh link references unknown chain %q", l.A)
		}
		if byName[l.B] == nil {
			return nil, fmt.Errorf("core: mesh link references unknown chain %q", l.B)
		}
		if l.B < l.A {
			l.A, l.B = l.B, l.A
			l.PortA, l.PortB = l.PortB, l.PortA
			l.NetA, l.NetB = l.NetB, l.NetA
		}
	}
	sort.Slice(links, func(i, j int) bool {
		if links[i].A != links[j].A {
			return links[i].A < links[j].A
		}
		return links[i].B < links[j].B
	})
	for i := 1; i < len(links); i++ {
		if links[i].A == links[i-1].A && links[i].B == links[i-1].B {
			return nil, fmt.Errorf("core: duplicate mesh link %s-%s", links[i].A, links[i].B)
		}
	}
	spec.Chains, spec.Links = specChains, links
	p.spec = spec

	// bind gives chain a transfer app on port wrapped in forwarding. Fees
	// sit outside forwarding so the sender's escrow is charged before the
	// packet commits; onward hops the forward module emits are exempt
	// (the first hop paid).
	bind := func(chain *chainPlan, port ibc.PortID) {
		for _, pp := range chain.ports {
			if pp.port == port {
				return
			}
		}
		base := "mesh." + chain.name + "." + string(port)
		pp := portPlan{port: port}
		if spec.Fees.Enabled() {
			pp.stack = append(pp.stack, mwPlan{
				MiddlewareSpec: MiddlewareSpec{Kind: MiddlewareFees, Fees: spec.Fees},
				exemptSender:   forwardAccount,
			})
		}
		pp.stack = append(pp.stack, mwPlan{
			MiddlewareSpec: MiddlewareSpec{Kind: MiddlewareForward},
			ns:             base + ".forward", timeout: spec.ForwardTimeout,
		})
		chain.ports = append(chain.ports, pp)
	}
	for _, ls := range links {
		ca, cb := byName[ls.A], byName[ls.B]
		bind(ca, ls.PortA)
		bind(cb, ls.PortB)
		id := ls.A + "-" + ls.B
		var chSpec ChannelSpec
		switch {
		case ca.guest:
			chSpec = ChannelSpec{GuestPort: ls.PortA, CPPort: ls.PortB}
		case cb.guest:
			chSpec = ChannelSpec{GuestPort: ls.PortB, CPPort: ls.PortA}
		}
		lp := linkPlan{
			id: id, a: ls.A, b: ls.B,
			channels:  []channelPlan{{portA: ls.PortA, portB: ls.PortB, ordering: ls.Ordering, version: ls.Version, spec: chSpec}},
			netA:      ls.NetA,
			netB:      ls.NetB,
			metricsNS: "relayer.link." + id,
			strict:    true,
		}
		// Competitor 0 keeps the bare per-link identifiers; extras derive
		// "/r<i>"-suffixed variants and share the link's namespace:
		// delivery counters aggregate per link, lost_race splits winners
		// from losers.
		for ri := 0; ri < ls.Relayers; ri++ {
			suffix := ""
			if ri > 0 {
				suffix = fmt.Sprintf("/r%d", ri)
			}
			lp.fleet = append(lp.fleet, relayerPlan{
				node:     netsim.LinkRelayerNode(id + suffix),
				identity: "relayer/link/" + id + suffix,
				seed:     sim.DeriveSeed(cfg.Seed, "link/"+id+suffix),
			})
		}
		p.links = append(p.links, lp)
	}
	return p, nil
}
