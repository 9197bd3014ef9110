// Package core is the top-level facade of the library: it wires a complete
// guest-blockchain deployment — simulated host chain, Guest Contract,
// validators, relayer, fishermen, and the IBC counterparty — into a single
// Network that examples, experiments, and tests drive on a virtual clock.
//
// A Network is the programmatic equivalent of the paper's §IV deployment:
// the Guest Contract live on the host with a 10 MiB provable-state
// account, 24 staked validators (a subset actively signing), a relayer
// bridging to a Cosmos-like counterparty, and a packet workload.
package core

import (
	"errors"
	"fmt"
	"path/filepath"
	"time"

	"repro/internal/counterparty"
	"repro/internal/cryptoutil"
	"repro/internal/fees"
	"repro/internal/fisherman"
	"repro/internal/guest"
	"repro/internal/guestblock"
	"repro/internal/host"
	"repro/internal/ibc"
	"repro/internal/middleware"
	"repro/internal/netsim"
	"repro/internal/nodestore"
	"repro/internal/relayer"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/transfer"
	"repro/internal/validator"
)

// Config assembles a Network.
type Config struct {
	// GuestParams configure the Guest Contract (DefaultParams if zero).
	GuestParams guest.Params
	// CP configures the counterparty chain of the implicit two-chain
	// deployment (DefaultConfig if zero); chains of an explicit Mesh carry
	// their own.
	CP counterparty.Config
	// Behaviours define the validator fleet; defaults to
	// DeploymentBehaviours() (the Table I fleet) when empty.
	Behaviours []validator.Behaviour
	// Stakes per validator in lamports; defaults to a realistic spread
	// summing to the deployment's $1.25M at $200/SOL.
	Stakes []host.Lamports
	// Channels describes the channel list of the implicit deployment's one
	// link. When empty it is one unordered "transfer" channel. All channels
	// multiplex over the one connection/client pair; the relayer serves
	// each from its own work-queue shard while client updates stay shared.
	Channels []ChannelSpec
	// Mesh declares the topology: one guest chain plus Cosmos
	// counterparties joined by a link graph, each link served by its own
	// relayer fleet. Left empty it is the paper's deployment — the
	// two-chain mesh "guest" ↔ "cp" over one link carrying Channels. The
	// single-pair accessors (CP, Relayer, Boot, GuestApp, CPApp) are views
	// of the first guest link either way. See mesh.go and plan.go.
	Mesh MeshSpec
	// HostProfile sets the host runtime constraints (Solana default;
	// §VI-D portability).
	HostProfile host.Profile
	// Net describes the simulated network between actors. The zero value
	// is lossless and zero-latency: all traffic still flows through
	// netsim endpoints, but delivery is synchronous and draw-free, so
	// default runs reproduce bit-identically. Net.Seed defaults to a
	// stream derived from Seed.
	Net netsim.Config
	// MempoolLimit bounds the host mempool admission queue; Submit
	// returns host.ErrMempoolFull beyond it. 0 (the default) keeps the
	// mempool unbounded, preserving every seed experiment unchanged.
	// Open-loop load runs set it so overload sheds instead of queueing
	// without bound.
	MempoolLimit int
	// Store configures disk-backed state persistence. The zero value
	// keeps every provable store purely in-heap (the byte-identical
	// default); see StoreSpec.
	Store StoreSpec
	// Seed drives all randomness.
	Seed int64
}

// StoreSpec configures the nodestore persistence layer behind the provable
// stores. An empty Dir disables persistence entirely.
type StoreSpec struct {
	// Dir is the directory holding the guest chain's write-ahead log
	// (subdirectory "guest"; counterparty chains stay in-heap). Opening a
	// non-empty directory recovers the state it holds.
	Dir string
	// SyncEvery adds a group-fsync every N root commits on top of the
	// finalisation-driven syncs (0 = finalisation only).
	SyncEvery int
	// ColdRetention, when > 0, evicts guest snapshots older than this
	// many blocks to disk (guest.Config.ColdRetention).
	ColdRetention int
}

// ChannelSpec declares one channel of the topology: the application
// ports on each side, the ordering, the ICS-20 version string, and the
// middleware stacks wrapping each side's transfer app. Zero ports are
// "transfer", zero ordering Unordered.
type ChannelSpec struct {
	GuestPort ibc.PortID
	CPPort    ibc.PortID
	Ordering  ibc.Ordering
	Version   string

	// GuestMiddleware / CPMiddleware list the middleware layers wrapped
	// around each side's app, outermost first. Stacks are per PORT
	// (channels sharing a port share the app and its stack), so only the
	// first spec binding a port may declare a list; a later spec naming
	// the same port with a different non-empty list is a config error.
	GuestMiddleware []MiddlewareSpec
	CPMiddleware    []MiddlewareSpec
}

// MiddlewareKind names one of the production middlewares for ChannelSpec
// wiring.
type MiddlewareKind string

const (
	// MiddlewareCallbacks installs per-packet lifecycle hooks with
	// bounded compute budgets (register hooks via the stack after
	// NewNetwork).
	MiddlewareCallbacks MiddlewareKind = "callbacks"
	// MiddlewareFees installs ICS-29-style relayer fee escrow; payouts
	// accrue to the deployment's relayer, which claims them periodically.
	MiddlewareFees MiddlewareKind = "fees"
	// MiddlewareForward installs transfer-v2-style packet forwarding over
	// a next (port, channel) hop named in the memo.
	MiddlewareForward MiddlewareKind = "forward"
)

// MiddlewareSpec declares one middleware layer of a ChannelSpec stack.
type MiddlewareSpec struct {
	Kind MiddlewareKind
	// Fees is the per-packet fee schedule (Kind == MiddlewareFees).
	Fees middleware.FeeSchedule
}

// ChannelRuntime is one opened channel: its spec, the transfer apps
// bound on each side (channels sharing a port share an app), the
// middleware stacks wrapping them, and the channel IDs the handshake
// assigned.
type ChannelRuntime struct {
	Spec         ChannelSpec
	GuestApp     *transfer.App
	CPApp        *transfer.App
	GuestStack   *middleware.Stack
	CPStack      *middleware.Stack
	GuestChannel ibc.ChannelID
	CPChannel    ibc.ChannelID
}

// Network is a fully wired deployment.
type Network struct {
	Sched    *sim.Scheduler
	Host     *host.Chain
	Contract *guest.Contract
	// CP, Relayer (the primary of the link's fleet) and Boot are views of
	// the first guest link — the whole deployment when Config.Mesh is
	// empty.
	CP      *counterparty.Chain
	Relayer *relayer.Relayer
	Boot    *relayer.Result

	Validators    []*validator.Validator
	ValidatorKeys []*cryptoutil.PrivKey

	// GuestApp / CPApp are Channels[0]'s transfer applications; Channels
	// holds every channel of every guest link, first link first.
	GuestApp *transfer.App
	CPApp    *transfer.App
	Channels []*ChannelRuntime

	// Mesh is the topology runtime: chains, links, relayer fleets, routes.
	Mesh *MeshRuntime

	Gossip    *fisherman.Gossip
	Fishermen []*fisherman.Fisherman

	// Net is the simulated network carrying all actor traffic; chaos
	// scenarios configure its links and fault windows via Config.Net.
	Net *netsim.Network

	// Tel collects metrics, events, and packet traces from every layer of
	// the deployment; see SnapshotTelemetry.
	Tel *telemetry.Telemetry

	// Deposit is the rent-exempt deposit paid for the state account
	// (§V-D: ≈ $14.6k).
	Deposit host.Lamports

	// GuestNodeStore is the disk persistence backend when Config.Store.Dir
	// is set (nil otherwise). Close it via CloseStores when tearing the
	// network down gracefully; crash tests instead call the Disk Crash hook
	// directly.
	GuestNodeStore nodestore.Store

	cfg           Config
	payer         *cryptoutil.PrivKey
	crank         *guest.TxBuilder
	slotScheduled bool
	hostCursor    host.Slot

	// hostEP is the host chain's RPC front-end on the simulated network
	// (netsim.HostFrontEnd); guest is the guest chain's runtime, whose
	// relayerNodes host-block notifications fan out to.
	hostEP *netsim.Endpoint
	guest  *MeshChain

	// Guest-block cadence instruments fed from dispatch.
	mBlockInterval *telemetry.Histogram
	mBlockFinalise *telemetry.Histogram
	lastGuestBlock time.Time
}

// DefaultStakes returns 24 stakes summing to ≈ $1.25M at $200/SOL
// (≈ 6250 SOL), with a realistic spread.
func DefaultStakes(n int) []host.Lamports {
	out := make([]host.Lamports, n)
	base := host.Lamports(6250) * host.LamportsPerSOL / host.Lamports(n)
	for i := range out {
		// Spread: larger operators stake up to ~2x the smaller ones.
		factor := 1.0 + 0.8*float64(n-1-i)/float64(n)
		out[i] = host.Lamports(float64(base) * factor)
	}
	return out
}

// NewNetwork deploys everything and runs the IBC bootstrap. The returned
// network is idle: call Run (or the scheduler directly) to make progress.
//
// There is one way to build a deployment: normalize turns the config into
// a plan (plan.go), and everything below wires that plan — chains and
// their port stacks, one client pair + connection + channel list per
// link, the simulated network with one idempotent front-end per chain,
// one relayer fleet per link, the routing view, fees, daemons, schedule.
func NewNetwork(cfg Config) (*Network, error) {
	p, err := normalize(&cfg)
	if err != nil {
		return nil, err
	}
	n := &Network{Sched: sim.NewScheduler(genesis), cfg: cfg, Tel: telemetry.New()}
	if err := n.setupFoundation(); err != nil {
		return nil, err
	}
	mesh := &MeshRuntime{
		Spec:           p.spec,
		Chains:         make(map[string]*MeshChain),
		ForwardAccount: forwardAccount,
	}
	n.Mesh = mesh

	// --- Chains, applications, middleware stacks ---
	for i := range p.chains {
		mc, err := n.buildChain(&p.chains[i])
		if err != nil {
			return nil, err
		}
		mesh.Chains[mc.Name] = mc
		mesh.Order = append(mesh.Order, mc.Name)
	}

	// --- Link bootstrap ---
	// One client pair + connection per link, in canonical order, then a
	// channel handshake per declared channel — the first creates the
	// connection, the rest reuse it (IBC multiplexes any number of
	// channels over one connection, which is what makes update
	// amortisation possible). Guest links get indexed client IDs on the
	// shared guest handler; cosmos pairs name their clients after the
	// peer chain. This loop is the last place that asks which kind of
	// chain an end is.
	guestLinks := 0
	var primary *MeshLink
	for _, lp := range p.links {
		ca, cb := mesh.Chains[lp.a], mesh.Chains[lp.b]
		link := &MeshLink{ID: lp.id, A: lp.a, B: lp.b, MetricsNS: lp.metricsNS}
		for ci, ch := range lp.channels {
			ends := routing.Link{A: lp.a, B: lp.b, PortA: ch.portA, PortB: ch.portB}
			switch {
			case ca == n.guest || cb == n.guest:
				// The plan's ChannelSpec already names the ports guest-side
				// first; find the cosmos end to match.
				cosmos, guestPort, cpPort := cb, ch.spec.GuestPort, ch.spec.CPPort
				if cb == n.guest {
					cosmos = ca
				}
				res, err := (&relayer.Bootstrap{
					HostChain:         n.Host,
					Contract:          n.Contract,
					CP:                cosmos.CP,
					ValidatorKeys:     n.ValidatorKeys,
					GuestPort:         guestPort,
					CPPort:            cpPort,
					Ordering:          ch.ordering,
					Version:           ch.version,
					GuestClientID:     ibc.ClientID(fmt.Sprintf("tendermint-%d", guestLinks)),
					GuestOnCPClientID: "guest-0",
					Reuse:             link.boot,
				}).Run()
				if err != nil {
					return nil, fmt.Errorf("core: bootstrap link %s channel %d: %w", lp.id, ci, err)
				}
				link.boot = res
				ends.ChannelA, ends.ChannelB = res.GuestChannel, res.CPChannel
				link.clientOnA, link.clientOnB = res.GuestClientID, res.GuestOnCPClientID
				if cb == n.guest {
					ends.ChannelA, ends.ChannelB = res.CPChannel, res.GuestChannel
					link.clientOnA, link.clientOnB = res.GuestOnCPClientID, res.GuestClientID
				}
				n.Channels = append(n.Channels, &ChannelRuntime{
					Spec:         ch.spec,
					GuestApp:     n.guest.Apps[guestPort],
					CPApp:        cosmos.Apps[cpPort],
					GuestStack:   n.guest.Stacks[guestPort],
					CPStack:      cosmos.Stacks[cpPort],
					GuestChannel: res.GuestChannel,
					CPChannel:    res.CPChannel,
				})
				if n.Boot == nil {
					n.Boot, n.CP, primary = res, cosmos.CP, link
					n.GuestApp, n.CPApp = n.Channels[0].GuestApp, n.Channels[0].CPApp
				}
			default:
				res, err := (&relayer.PairBootstrap{
					A: ca.CP, B: cb.CP,
					PortA: ch.portA, PortB: ch.portB,
					Ordering: ch.ordering, Version: ch.version,
				}).Run()
				if err != nil {
					return nil, fmt.Errorf("core: bootstrap link %s: %w", lp.id, err)
				}
				ends.ChannelA, ends.ChannelB = res.ChanA, res.ChanB
				link.clientOnA, link.clientOnB = res.ClientBOnA, res.ClientAOnB
			}
			link.Channels = append(link.Channels, ends)
		}
		if link.boot != nil {
			guestLinks++
		}
		mesh.Links = append(mesh.Links, link)
	}

	// --- Simulated network + chain front-ends ---
	// Bootstrap ran over direct calls (operator setup predates the
	// daemons); from here on every actor's traffic goes through netsim
	// endpoints.
	netCfg := cfg.Net
	if netCfg.Seed == 0 {
		netCfg.Seed = sim.DeriveSeed(cfg.Seed, "netsim")
	}
	n.Net = netsim.New(n.Sched, netCfg, netsim.WithTelemetry(n.Tel.Metrics))
	n.Net.ScheduleFaults(genesis)
	n.hostEP = n.Net.Node(netsim.HostNode, nil, netsim.HostFrontEnd(n.Host))
	for _, name := range mesh.Order {
		if mc := mesh.Chains[name]; mc.CP != nil {
			mc.deliveredBy = make(map[string]netsim.NodeID)
			mc.ep = n.Net.Node(mc.Node, nil, mc.CP.FrontEnd(mc.deliveredBy))
		}
	}

	// --- Relayer fleets: one or more competitors per link ---
	// Every link is served by the one relayer engine over its two ends.
	// Competitors share the link's fault profile, metrics namespace and
	// routes; the plan gives each its own address, identity and seed.
	for li, l := range mesh.Links {
		lp := &p.links[li]
		ca, cb := mesh.Chains[l.A], mesh.Chains[l.B]
		for _, rp := range lp.fleet {
			if linkCfgSet(lp.netA) {
				n.Net.SetLinkBoth(rp.node, ca.Node, lp.netA)
			}
			if linkCfgSet(lp.netB) {
				n.Net.SetLinkBoth(rp.node, cb.Node, lp.netB)
			}
			rcfg := relayer.DefaultConfig()
			rcfg.A, rcfg.B = ca.end, cb.end
			rcfg.A.ClientOfPeer, rcfg.B.ClientOfPeer = l.clientOnA, l.clientOnB
			rcfg.Channels = l.Channels
			rcfg.StrictRoutes = lp.strict
			rcfg.Seed = rp.seed
			rcfg.MetricsNamespace = lp.metricsNS
			rcfg.NodeID = rp.node
			rcfg.KeyName = rp.identity
			r, err := relayer.New(rcfg, n.Sched, n.Net, relayer.WithTelemetry(n.Tel))
			if err != nil {
				return nil, fmt.Errorf("core: relayer for link %s: %w", l.ID, err)
			}
			// Host fees are only ever drawn by a relayer with a guest end.
			n.Host.Fund(r.Key().Public(), 10_000*host.LamportsPerSOL)
			if l == primary && n.Relayer == nil {
				n.Relayer = r
			}
			l.Relayers = append(l.Relayers, r)
			l.Nodes = append(l.Nodes, rp.node)
			ca.relayerNodes = append(ca.relayerNodes, rp.node)
			cb.relayerNodes = append(cb.relayerNodes, rp.node)
		}
	}

	// --- Routing view ---
	// Routes ride each link's first channel. A static spec gets the
	// single-path view nothing ever feeds; an adaptive one the scored
	// view wireScheduling samples relayer health into.
	rlinks := make([]routing.Link, 0, len(mesh.Links))
	for _, l := range mesh.Links {
		rlinks = append(rlinks, l.Channels[0])
	}
	if p.spec.Routing == RoutingAdaptive {
		mesh.View = routing.NewView(rlinks, p.spec.Cost, sim.DeriveSeed(cfg.Seed, "routing/view"))
	} else {
		mesh.View = routing.NewTable(rlinks)
	}

	feesPresent := n.wireFees()
	n.seedBlockCadence()
	n.startDaemons()
	n.wireScheduling(feesPresent)
	return n, nil
}

// buildChain creates one chain of the plan — the counterparty itself for
// a cosmos chain; the guest chain is the already-deployed contract — and
// binds a transfer app per declared port, each as a middleware stack
// (empty for plain ports, so a stack-less port behaves bit-identically to
// binding the bare app).
func (n *Network) buildChain(cp *chainPlan) (*MeshChain, error) {
	mc := &MeshChain{
		Name:   cp.name,
		Kind:   MeshCosmos,
		Apps:   make(map[ibc.PortID]*transfer.App),
		Stacks: make(map[ibc.PortID]*middleware.Stack),
		Node:   cp.node,
	}
	// Middleware dependencies: a next-hop app resolver, the chain-level
	// packet sender onward hops ride, and — on the guest — the live
	// compute meter, so callback budgets charge the enclosing transaction
	// (nil on the unmetered counterparty).
	resolve := func(port ibc.PortID) middleware.ForwardBank {
		if a, ok := mc.Apps[port]; ok {
			return a
		}
		return nil
	}
	var sender ibc.PacketSender
	var meter middleware.MeterSource
	var bind func(ibc.PortID, ibc.Module) error
	if cp.guest {
		mc.Kind = MeshGuest
		n.Mesh.GuestName, n.guest = cp.name, mc
		// The state pointer is resolved ONCE here, outside execution — the
		// meter hook fires inside executeLocked, where a chain.StateOf
		// round-trip would self-deadlock on the host mutex.
		guestState, err := n.Contract.State(n.Host)
		if err != nil {
			return nil, fmt.Errorf("core: guest state for middleware: %w", err)
		}
		meter = func() middleware.Meter {
			if m := guestState.Meter(); m != nil {
				return m
			}
			return nil
		}
		if sender, err = n.Contract.PacketSender(n.Host); err != nil {
			return nil, fmt.Errorf("core: guest packet sender: %w", err)
		}
		bind = func(port ibc.PortID, m ibc.Module) error { return n.Contract.BindPort(n.Host, port, m) }
		mc.end = relayer.EndConfig{Host: n.Host, Contract: n.Contract, Node: cp.node}
	} else {
		chain, err := counterparty.New(cp.cp, n.Sched.Clock(),
			counterparty.WithTelemetry(n.Tel.Metrics), counterparty.WithMetricsNamespace(cp.ibcNS))
		if err != nil {
			return nil, fmt.Errorf("core: chain %s: %w", cp.name, err)
		}
		mc.CP, sender, bind = chain, chain, chain.Handler().BindPort
		mc.end = relayer.EndConfig{Chain: chain, Node: cp.node}
	}
	for _, pp := range cp.ports {
		app := transfer.New(pp.port)
		mws, err := n.buildMiddlewares(pp.stack, app, resolve, sender, meter)
		if err != nil {
			return nil, fmt.Errorf("core: chain %s port %s middleware: %w", cp.name, pp.port, err)
		}
		stack := middleware.NewStack(app, mws...)
		if err := bind(pp.port, stack); err != nil {
			return nil, fmt.Errorf("core: chain %s: bind %s: %w", cp.name, pp.port, err)
		}
		mc.Apps[pp.port] = app
		mc.Stacks[pp.port] = stack
	}
	return mc, nil
}

// setupFoundation provisions the host-side layers — the simulated host
// chain, telemetry instruments, the funded payer, the validator fleet's
// keys and genesis set, and the Guest Contract.
func (n *Network) setupFoundation() error {
	cfg := n.cfg
	n.Host = host.NewChainWithProfile(n.Sched.Clock(), cfg.HostProfile)
	n.Host.SetBlockRetention(2048)
	n.Host.SetTelemetry(n.Tel.Metrics)
	if cfg.MempoolLimit > 0 {
		n.Host.SetMempoolLimit(cfg.MempoolLimit)
	}
	n.mBlockInterval = n.Tel.Metrics.Histogram("guest.block.interval_s")
	n.mBlockFinalise = n.Tel.Metrics.Histogram("guest.block.finalise_s")

	n.payer = cryptoutil.GenerateKey("network-payer")
	n.Host.Fund(n.payer.Public(), 1_000_000*host.LamportsPerSOL)

	// Validator fleet: operators with JoinAt == 0 are in the genesis
	// epoch; the rest stake at their join time and enter the set at the
	// next epoch rotation (the deployment started with one bootstrap
	// validator, §V).
	var genesis []guestblock.Validator
	for i := range cfg.Behaviours {
		key := cryptoutil.GenerateKeyIndexed("guest-validator", i)
		n.ValidatorKeys = append(n.ValidatorKeys, key)
		n.Host.Fund(key.Public(), cfg.Stakes[i]+50*host.LamportsPerSOL)
		if cfg.Behaviours[i].JoinAt <= 0 {
			genesis = append(genesis, guestblock.Validator{PubKey: key.Public(), Stake: uint64(cfg.Stakes[i])})
		}
	}
	if len(genesis) == 0 {
		return errors.New("core: no genesis validator (need one with JoinAt == 0)")
	}

	if cfg.Store.Dir != "" {
		ns, err := nodestore.Open(filepath.Join(cfg.Store.Dir, "guest"), nodestore.DiskConfig{
			SyncEvery: cfg.Store.SyncEvery,
		})
		if err != nil {
			return fmt.Errorf("core: open guest node store: %w", err)
		}
		n.GuestNodeStore = ns
	}

	contract, deposit, err := guest.Deploy(n.Host, guest.Config{
		Params:            cfg.GuestParams,
		Payer:             n.payer.Public(),
		GenesisValidators: genesis,
		Telemetry:         n.Tel.Metrics,
		NodeStore:         n.GuestNodeStore,
		ColdRetention:     cfg.Store.ColdRetention,
	})
	if err != nil {
		return fmt.Errorf("core: deploy guest contract: %w", err)
	}
	n.Contract = contract
	n.Deposit = deposit
	return nil
}

// CloseStores syncs and closes the disk persistence backend, making
// everything appended so far durable. No-op without Config.Store.Dir.
func (n *Network) CloseStores() error {
	if n.GuestNodeStore == nil {
		return nil
	}
	return n.GuestNodeStore.Close()
}

// seedBlockCadence seeds the guest-block cadence histograms with the
// blocks minted during bootstrap, which predate the dispatch loop.
func (n *Network) seedBlockCadence() {
	st, err := n.Contract.State(n.Host)
	if err != nil {
		return
	}
	for _, e := range st.Entries {
		if !n.lastGuestBlock.IsZero() {
			n.mBlockInterval.Observe(e.CreatedAt.Sub(n.lastGuestBlock).Seconds())
		}
		n.lastGuestBlock = e.CreatedAt
		// The genesis entry is born finalised with no FinalisedAt.
		if e.Finalised && !e.FinalisedAt.IsZero() {
			n.mBlockFinalise.Observe(e.FinalisedAt.Sub(e.CreatedAt).Seconds())
		}
	}
}

// startDaemons launches the host-side actors: the validator daemons, the
// fisherman, and the crank identity.
func (n *Network) startDaemons() {
	cfg := n.cfg
	contract := n.Contract

	// Validator daemons: activate (and stake, for late joiners) at their
	// join time.
	for i, b := range cfg.Behaviours {
		v := validator.New(n.ValidatorKeys[i], b, n.Host, contract, n.Sched, n.Net, i,
			validator.WithSeed(cfg.Seed+int64(i)*101),
			validator.WithTelemetry(n.Tel.Metrics))
		n.Validators = append(n.Validators, v)
		i := i
		if b.JoinAt <= 0 {
			v.Activate()
			continue
		}
		n.Sched.At(genesis.Add(b.JoinAt), func() {
			builder := guest.NewTxBuilder(contract, n.ValidatorKeys[i].Public())
			stakeTx := builder.StakeTx(n.ValidatorKeys[i].Public(), cfg.Stakes[i])
			if err := n.Host.Submit(stakeTx); err != nil {
				return
			}
			v.Activate()
		})
	}

	// Fisherman infrastructure.
	n.Gossip = &fisherman.Gossip{}
	f := fisherman.New("0", n.Host, contract, n.Gossip, n.Net, 0)
	n.Host.Fund(f.Key().Public(), 100*host.LamportsPerSOL)
	n.Fishermen = []*fisherman.Fisherman{f}

	// Crank account pays for GenerateBlock invocations ("callable by
	// anyone"; in the deployment the relayer operator cranks it).
	crankKey := cryptoutil.GenerateKey("crank")
	n.Host.Fund(crankKey.Public(), 1_000*host.LamportsPerSOL)
	n.crank = guest.NewTxBuilder(contract, crankKey.Public())
}

// buildMiddlewares instantiates one port's declared middleware stack.
// bank is the port's transfer app (fee escrow ledger), resolve finds
// next-hop apps for forwarding, sender is the chain-level send entry
// point, and meter exposes the live compute meter.
func (n *Network) buildMiddlewares(stack []mwPlan, bank *transfer.App, resolve middleware.AppResolver, sender ibc.PacketSender, meter middleware.MeterSource) ([]middleware.Middleware, error) {
	out := make([]middleware.Middleware, 0, len(stack))
	for _, ms := range stack {
		switch ms.Kind {
		case MiddlewareCallbacks:
			out = append(out, middleware.NewCallbacks(
				middleware.WithMeterSource(meter),
				middleware.WithCallbacksTelemetry(n.Tel.Metrics, ms.ns)))
		case MiddlewareFees:
			if !ms.Fees.Enabled() {
				return nil, fmt.Errorf("core: fees middleware needs a non-zero schedule")
			}
			var opts []middleware.FeesOption
			if ms.exemptSender != "" {
				opts = append(opts, middleware.WithFeesExemptSender(ms.exemptSender))
			}
			out = append(out, middleware.NewFees(bank, ms.Fees, opts...))
		case MiddlewareForward:
			out = append(out, middleware.NewForward(forwardAccount, resolve, sender,
				middleware.WithForwardTelemetry(n.Tel.Metrics, ms.ns),
				middleware.WithForwardTimeout(ms.timeout, n.Sched.Now)))
		default:
			return nil, fmt.Errorf("core: unknown middleware kind %q", ms.Kind)
		}
	}
	return out, nil
}

// wireScheduling installs the recurring simulation activities: host slot
// production on demand, per-chain BFT block ticks fanning out to each
// attached link relayer, the crank, the heartbeat, per-link timeout
// scans, fisherman polling, and — only when the deployment asks for them
// — the adaptive health feed and the ICS-29 fee sweep.
func (n *Network) wireScheduling(feesPresent bool) {
	// Host blocks are produced on demand: whenever a transaction is
	// submitted, the next slot boundary gets a production event.
	n.Host.SetSubmitHook(n.ensureSlotScheduled)

	// Counterparty blocks tick at the BFT interval; the new-height
	// notification reaches the relayers over the wire.
	for _, name := range n.Mesh.Order {
		mc := n.Mesh.Chains[name]
		if mc.CP == nil {
			continue
		}
		n.Sched.Every(mc.CP.BlockInterval(), func() bool {
			h := mc.CP.ProduceBlock()
			for _, rn := range mc.relayerNodes {
				mc.ep.Send(rn, netsim.KindCPBlock, netsim.MsgCPBlock{Height: h.Height})
			}
			return true
		})
	}

	// The crank checks each second whether a guest block is due (pending
	// state changes or Δ expiry).
	n.Sched.Every(time.Second, func() bool {
		n.maybeCrank()
		return true
	})

	// Heartbeat: produce a host block at least once a minute so daemons
	// observe state (recovery signing) even when no transactions flow.
	n.Sched.Every(time.Minute, func() bool {
		n.ensureSlotScheduled()
		return true
	})

	// Timeout scanning and fisherman polling are periodic housekeeping.
	n.Sched.Every(30*time.Second, func() bool {
		for _, l := range n.Mesh.Links {
			for _, r := range l.Relayers {
				r.CheckTimeouts()
			}
		}
		return true
	})
	n.Sched.Every(5*time.Second, func() bool {
		for _, f := range n.Fishermen {
			_ = f.Poll()
		}
		return true
	})

	// Health telemetry feeds the adaptive view every healthInterval. A
	// static deployment schedules nothing here: its view is never observed.
	if n.Mesh.Spec.Routing == RoutingAdaptive {
		view := n.Mesh.View
		cRecomputes := n.Tel.Metrics.Counter("mesh.routing.recomputes")
		n.Sched.Every(healthInterval, func() bool {
			for _, l := range n.Mesh.Links {
				view.Observe(l.ID, l.Health())
			}
			if view.Refresh() {
				cRecomputes.Inc()
			}
			return true
		})
	}

	// ICS-29 fee sweeping, only wired when a fee middleware exists so
	// fee-less deployments schedule nothing for it.
	if feesPresent {
		n.Sched.Every(10*time.Minute, func() bool {
			n.ClaimMeshFees()
			return true
		})
	}
}

// ensureSlotScheduled arms block production at the next slot boundary.
func (n *Network) ensureSlotScheduled() {
	if n.slotScheduled {
		return
	}
	n.slotScheduled = true
	now := n.Sched.Now()
	slot := n.cfg.HostProfile.SlotDuration
	elapsed := now.Sub(genesis)
	next := genesis.Add(elapsed.Truncate(slot) + slot)
	n.Sched.At(next, n.produceHostBlock)
}

// produceHostBlock runs one host slot and fans out events.
func (n *Network) produceHostBlock() {
	n.slotScheduled = false
	block := n.Host.ProduceBlock()
	n.dispatch(block)
	if n.Host.PendingCount() > 0 {
		n.ensureSlotScheduled()
	}
}

// dispatch fans a host block out to the daemons and observes guest-block
// cadence for the telemetry histograms.
func (n *Network) dispatch(block *host.Block) {
	for _, ev := range block.Events {
		switch e := ev.Payload.(type) {
		case guest.EventNewBlock:
			if !n.lastGuestBlock.IsZero() {
				n.mBlockInterval.Observe(e.Block.Time.Sub(n.lastGuestBlock).Seconds())
			}
			n.lastGuestBlock = e.Block.Time
		case guest.EventFinalisedBlock:
			n.mBlockFinalise.Observe(e.Entry.FinalisedAt.Sub(e.Entry.CreatedAt).Seconds())
		}
	}
	// New-block notifications go out over the wire. A dropped notification
	// loses nothing: daemons cursor-pull every retained block on the next
	// delivery.
	for i := range n.Validators {
		n.hostEP.Send(netsim.ValidatorNode(i), netsim.KindHostBlock, netsim.MsgHostBlock{Block: block})
	}
	for _, rn := range n.guest.relayerNodes {
		n.hostEP.Send(rn, netsim.KindHostBlock, netsim.MsgHostBlock{Block: block})
	}
	n.hostCursor = block.Slot
}

// maybeCrank submits GenerateBlock when Alg. 1's precondition holds.
func (n *Network) maybeCrank() {
	st, err := n.Contract.State(n.Host)
	if err != nil {
		return
	}
	if st.CanGenerateBlock(n.Sched.Now()) == nil {
		_ = n.Host.Submit(n.crank.GenerateBlockTx())
	}
}

// Run advances the simulation by d of virtual time.
func (n *Network) Run(d time.Duration) { n.Sched.RunFor(d) }

// User is a funded account that can send transfers from the guest side.
type User struct {
	Key  *cryptoutil.PrivKey
	Name string
}

// NewUser creates and funds a guest-side user with tokens to send.
func (n *Network) NewUser(name string, lamports host.Lamports, denom string, tokens uint64) *User {
	u := &User{Key: cryptoutil.GenerateKey("user/" + name), Name: name}
	n.Host.Fund(u.Key.Public(), lamports)
	n.GuestApp.Mint(u.Key.Public().String(), denom, tokens)
	return u
}

// SendTransferFromGuest escrows tokens and submits a SendPacket
// transaction under the given fee policy on channel 0; it returns the
// submitted transaction for fee accounting.
func (n *Network) SendTransferFromGuest(u *User, receiver string, denom string, amount uint64, memo string, policy fees.Policy, timeout time.Duration) (*host.Transaction, error) {
	return n.SendTransferFromGuestOn(0, u, receiver, denom, amount, memo, policy, timeout)
}

// SendTransferFromGuestOn is SendTransferFromGuest on channel index ch
// of the topology.
func (n *Network) SendTransferFromGuestOn(ch int, u *User, receiver string, denom string, amount uint64, memo string, policy fees.Policy, timeout time.Duration) (*host.Transaction, error) {
	if ch < 0 || ch >= len(n.Channels) {
		return nil, fmt.Errorf("core: no channel %d (topology has %d)", ch, len(n.Channels))
	}
	return n.InjectTransfer(TransferReq{
		Channel:  ch,
		Sender:   u.Key.Public(),
		Receiver: receiver,
		Denom:    denom,
		Amount:   amount,
		Memo:     memo,
		Policy:   policy,
		Timeout:  timeout,
	})
}

// TransferReq describes one guest-side transfer for InjectTransfer.
type TransferReq struct {
	Channel  int
	Sender   cryptoutil.PubKey
	Receiver string
	Denom    string
	Amount   uint64
	Memo     string
	Policy   fees.Policy
	// Timeout is the IBC packet timeout, relative to now (0 = none).
	Timeout time.Duration
	// Deadline arms mempool deadline shedding for the send transaction.
	Deadline time.Time
	// OnShed is invoked after a deadline shed rolled the escrow back, so
	// open-loop sources can keep their admitted-load accounting exact.
	OnShed func()
}

// InjectTransfer escrows and submits a guest-side transfer for an
// arbitrary sender key — the open-loop load path, which synthesises
// millions of sender accounts without materialising private keys (host
// transactions declare rather than verify their signers). A non-zero
// deadline arms mempool shedding; rejection at admission or at shedding
// rolls the escrow back via CancelSend so per-channel conservation holds
// for exactly the admitted packets.
func (n *Network) InjectTransfer(req TransferReq) (*host.Transaction, error) {
	ch := req.Channel
	if ch < 0 || ch >= len(n.Channels) {
		return nil, fmt.Errorf("core: no channel %d (topology has %d)", ch, len(n.Channels))
	}
	rt := n.Channels[ch]
	data := &transfer.PacketData{
		Denom:    req.Denom,
		Amount:   req.Amount,
		Sender:   req.Sender.String(),
		Receiver: req.Receiver,
		Memo:     req.Memo,
	}
	if err := rt.GuestApp.PrepareSend(rt.GuestChannel, data); err != nil {
		return nil, err
	}
	builder := guest.NewTxBuilder(n.Contract, req.Sender)
	builder.PriorityFee = req.Policy.PriorityFee
	builder.BundleTip = req.Policy.BundleTip
	var ts time.Time
	if req.Timeout > 0 {
		ts = n.Sched.Now().Add(req.Timeout)
	}
	tx := builder.SendPacketTx(&guest.SendPacketArgs{
		Sender:           req.Sender,
		Port:             rt.Spec.GuestPort,
		Channel:          rt.GuestChannel,
		Data:             data.Marshal(),
		TimeoutTimestamp: ts,
	})
	tx.Deadline = req.Deadline
	onShed := req.OnShed
	tx.OnShed = func(*host.Transaction) {
		// Deadline-shed before inclusion: no commitment exists, undo
		// the escrow.
		_ = rt.GuestApp.CancelSend(rt.GuestChannel, data)
		if onShed != nil {
			onShed()
		}
	}
	if err := n.Host.Submit(tx); err != nil {
		// Rejected at admission (mempool full, duplicate): the packet
		// never entered the chain, undo the escrow.
		if cerr := rt.GuestApp.CancelSend(rt.GuestChannel, data); cerr != nil {
			return nil, fmt.Errorf("%w (escrow rollback failed: %v)", err, cerr)
		}
		return nil, err
	}
	return tx, nil
}

// SendTransferFromCP sends tokens from the counterparty towards the
// guest on channel 0.
func (n *Network) SendTransferFromCP(sender, receiver, denom string, amount uint64, memo string, timeout time.Duration) (*ibc.Packet, error) {
	return n.SendTransferFromCPOn(0, sender, receiver, denom, amount, memo, timeout)
}

// SendTransferFromCPOn is SendTransferFromCP on channel index ch.
func (n *Network) SendTransferFromCPOn(ch int, sender, receiver, denom string, amount uint64, memo string, timeout time.Duration) (*ibc.Packet, error) {
	if ch < 0 || ch >= len(n.Channels) {
		return nil, fmt.Errorf("core: no channel %d (topology has %d)", ch, len(n.Channels))
	}
	rt := n.Channels[ch]
	data := &transfer.PacketData{
		Denom:    denom,
		Amount:   amount,
		Sender:   sender,
		Receiver: receiver,
		Memo:     memo,
	}
	return n.cosmosSend(n.CP, rt.CPApp, rt.Spec.CPPort, rt.CPChannel, data, timeout)
}

// cosmosSend is the one send path on a cosmos chain: app escrows (or
// burns) data's tokens, then chain commits the packet on port/ch; a packet
// the chain refuses undoes the escrow.
func (n *Network) cosmosSend(chain *counterparty.Chain, app *transfer.App, port ibc.PortID, ch ibc.ChannelID, data *transfer.PacketData, timeout time.Duration) (*ibc.Packet, error) {
	if err := app.PrepareSend(ch, data); err != nil {
		return nil, err
	}
	var ts time.Time
	if timeout > 0 {
		ts = n.Sched.Now().Add(timeout)
	}
	p, err := chain.SendPacket(port, ch, data.Marshal(), 0, ts)
	if err != nil {
		// The packet never entered the chain: undo the escrow.
		_ = app.CancelSend(ch, data)
		return nil, err
	}
	return p, nil
}

// GuestState returns the live contract state (read-only off-chain view).
func (n *Network) GuestState() (*guest.State, error) {
	return n.Contract.State(n.Host)
}

// SnapshotTelemetry refreshes the state-growth gauges and each link's
// backlog gauge, and returns a point-in-time snapshot of every metric and
// packet trace in the deployment.
func (n *Network) SnapshotTelemetry() telemetry.Snapshot {
	if st, err := n.GuestState(); err == nil {
		n.Tel.Metrics.Gauge("guest.state.live_nodes").Set(int64(st.Store.Trie().NodeCount()))
		n.Tel.Metrics.Gauge("guest.state.retained_versions").Set(int64(st.RetainedSnapshots()))
	}
	// Each link's work backlog, the figure the adaptive view scores, sits
	// next to the counters its relayers already emit.
	for _, l := range n.Mesh.Links {
		n.Tel.Metrics.Gauge(l.MetricsNS + ".backlog").Set(int64(l.Health().Backlog))
	}
	return n.Tel.Snapshot()
}
