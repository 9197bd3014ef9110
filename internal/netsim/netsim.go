// Package netsim is the simulated network between the deployment's
// actors: validator daemons, the relayer, fishermen, the host chain's RPC
// front-end, and the counterparty's RPC front-end. Every directed link
// has a latency distribution plus drop / duplicate / reorder
// probabilities, and scripted fault windows (node crashes, partitions)
// can be injected on top — all driven by the shared sim.Scheduler and a
// seeded RNG, so chaos runs stay bit-reproducible.
//
// The zero-value LinkConfig is a lossless, zero-latency link. Messages on
// such links (with no crash or partition in effect) are delivered
// synchronously, without touching the scheduler or the RNG: with faults
// off the transport is behaviour-preserving and the existing figures
// reproduce bit-identically.
//
// Delivery is at-most-once per send; reliability is layered on top with
// Endpoint.ReliableCall (retry with exponential backoff), and
// exactly-once application semantics come from the IBC layer's sealed
// receipts plus idempotent call handlers — see DESIGN.md §8.
package netsim

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/sim"
	"repro/internal/telemetry"
)

// NodeID names an actor on the simulated network.
type NodeID string

// Well-known nodes of a deployment.
const (
	// HostNode is the host chain's RPC front-end (submission endpoint).
	HostNode NodeID = "host"
	// CPNode is the counterparty chain's RPC front-end.
	CPNode NodeID = "cp"
	// RelayerNode is the relayer daemon.
	RelayerNode NodeID = "relayer"
)

// ValidatorNode names the i-th validator daemon.
func ValidatorNode(i int) NodeID { return NodeID(fmt.Sprintf("validator-%d", i)) }

// ChainNode names the RPC front-end of a mesh chain. The legacy pair's
// counterparty keeps the well-known CPNode id.
func ChainNode(name string) NodeID { return NodeID("chain-" + name) }

// LinkRelayerNode names the relayer daemon serving mesh link id ("a-b").
func LinkRelayerNode(id string) NodeID { return NodeID("link-" + id) }

// FishermanNode names the i-th fisherman daemon.
func FishermanNode(i int) NodeID { return NodeID(fmt.Sprintf("fisherman-%d", i)) }

// Handler consumes one-way messages addressed to a node.
type Handler func(from NodeID, kind string, payload any)

// CallHandler serves request/response calls addressed to a node.
type CallHandler func(from NodeID, kind string, payload any) (any, error)

// LinkConfig parameterises one directed link. The zero value is a
// perfect link: zero latency, no loss.
type LinkConfig struct {
	// Latency delays each delivery (nil = synchronous).
	Latency sim.Dist
	// Drop is the probability a message copy is lost in transit.
	Drop float64
	// Duplicate is the probability a message is delivered twice.
	Duplicate float64
	// Reorder is the probability a message is held back by ReorderDelay,
	// letting later traffic overtake it.
	Reorder float64
	// ReorderDelay is the hold-back applied to reordered messages
	// (default 500ms when Reorder > 0).
	ReorderDelay time.Duration
}

// lossless reports whether the link never needs the scheduler or RNG.
func (c LinkConfig) lossless() bool {
	return c.Latency == nil && c.Drop == 0 && c.Duplicate == 0 && c.Reorder == 0
}

// Config is a scenario-level network description: the default link plus
// scripted fault windows, all relative to the scenario start.
type Config struct {
	// Seed drives the transport's own RNG (drops, jitter). Independent of
	// the actor seeds so lossless runs draw nothing from it.
	Seed int64
	// Default applies to every link without an explicit SetLink.
	Default LinkConfig
	// Partitions and Crashes are scheduled by ScheduleFaults.
	Partitions []PartitionWindow
	Crashes    []CrashWindow
}

// node is one registered actor.
type node struct {
	handler Handler
	calls   CallHandler
	crashed bool
}

type linkKey struct{ from, to NodeID }

// pendingCall tracks an outstanding request awaiting its reply.
type pendingCall struct {
	cb func(resp any, err error)
}

// envelope is one message in flight.
type envelope struct {
	from, to NodeID
	kind     string
	payload  any
	// callID links a request to its reply (0 for one-way sends).
	callID  uint64
	isReply bool
	resp    any
	err     error
}

// Network is the message fabric between all registered nodes.
type Network struct {
	sched *sim.Scheduler
	rng   *rand.Rand
	cfg   Config

	nodes map[NodeID]*node
	links map[linkKey]LinkConfig

	// partitions holds the active partition windows (group pairs).
	partitions []activePartition

	nextCall uint64
	pending  map[uint64]*pendingCall

	reg *telemetry.Registry // nil-safe

	mSent          *telemetry.Counter
	mDelivered     *telemetry.Counter
	mDropped       *telemetry.Counter
	mDropCrash     *telemetry.Counter
	mDropPartition *telemetry.Counter
	mDuplicated    *telemetry.Counter
	mReordered     *telemetry.Counter
}

type activePartition struct {
	a, b map[NodeID]bool
}

// Option configures a Network.
type Option func(*Network)

// WithTelemetry registers the transport's counters in reg
// under the "netsim." prefix.
func WithTelemetry(reg *telemetry.Registry) Option {
	return func(n *Network) { n.reg = reg }
}

// New creates a network on the given scheduler. Fault windows in cfg are
// not armed until ScheduleFaults is called with the scenario start time.
func New(sched *sim.Scheduler, cfg Config, opts ...Option) *Network {
	n := &Network{
		sched:   sched,
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		cfg:     cfg,
		nodes:   make(map[NodeID]*node),
		links:   make(map[linkKey]LinkConfig),
		pending: make(map[uint64]*pendingCall),
	}
	for _, o := range opts {
		o(n)
	}
	n.mSent = n.reg.Counter("netsim.sent")
	n.mDelivered = n.reg.Counter("netsim.delivered")
	n.mDropped = n.reg.Counter("netsim.dropped")
	n.mDropCrash = n.reg.Counter("netsim.dropped_crash")
	n.mDropPartition = n.reg.Counter("netsim.dropped_partition")
	n.mDuplicated = n.reg.Counter("netsim.duplicated")
	n.mReordered = n.reg.Counter("netsim.reordered")
	return n
}

// Scheduler exposes the network's scheduler (for retry timers).
func (n *Network) Scheduler() *sim.Scheduler { return n.sched }

// Node registers an actor and returns its endpoint. handler serves
// one-way messages, calls serves request/response calls; either may be
// nil for nodes that only originate traffic.
func (n *Network) Node(id NodeID, handler Handler, calls CallHandler) *Endpoint {
	n.nodes[id] = &node{handler: handler, calls: calls}
	return &Endpoint{net: n, id: id}
}

// Endpoint returns an endpoint for a registered node.
func (n *Network) Endpoint(id NodeID) *Endpoint {
	return &Endpoint{net: n, id: id}
}

// SetLink configures the directed link from -> to.
func (n *Network) SetLink(from, to NodeID, cfg LinkConfig) {
	n.links[linkKey{from, to}] = cfg
}

// SetLinkBoth configures both directions between a and b.
func (n *Network) SetLinkBoth(a, b NodeID, cfg LinkConfig) {
	n.SetLink(a, b, cfg)
	n.SetLink(b, a, cfg)
}

// linkFor returns the directed link's config: the one SetLink installed,
// or the network default.
func (n *Network) linkFor(from, to NodeID) LinkConfig {
	if cfg, ok := n.links[linkKey{from, to}]; ok {
		return cfg
	}
	return n.cfg.Default
}

// crashed reports whether id is inside a crash window.
func (n *Network) crashed(id NodeID) bool {
	nd, ok := n.nodes[id]
	return ok && nd.crashed
}

// partitioned reports whether a and b are on opposite sides of an active
// partition.
func (n *Network) partitioned(a, b NodeID) bool {
	for _, p := range n.partitions {
		if (p.a[a] && p.b[b]) || (p.a[b] && p.b[a]) {
			return true
		}
	}
	return false
}

// callTTL bounds how long an unanswered request stays in the pending
// table; reliable callers re-issue well before this.
const callTTL = 2 * time.Hour

// send routes one envelope, applying link faults. It reports whether the
// envelope (and, for calls, its reply) completed synchronously.
func (n *Network) send(env *envelope) bool {
	n.mSent.Inc()
	// Fault checks at send time: a crashed node neither sends nor
	// receives; partitions sever the pair in both directions.
	if n.crashed(env.from) || n.crashed(env.to) {
		n.drop(n.mDropCrash)
		return false
	}
	if n.partitioned(env.from, env.to) {
		n.drop(n.mDropPartition)
		return false
	}
	cfg := n.linkFor(env.from, env.to)
	if cfg.lossless() {
		return n.deliver(env)
	}
	copies := 1
	if cfg.Duplicate > 0 && n.rng.Float64() < cfg.Duplicate {
		copies = 2
		n.mDuplicated.Inc()
	}
	for i := 0; i < copies; i++ {
		if cfg.Drop > 0 && n.rng.Float64() < cfg.Drop {
			n.drop(nil)
			continue
		}
		var delay time.Duration
		if cfg.Latency != nil {
			delay = cfg.Latency.Sample(n.rng)
		}
		if cfg.Reorder > 0 && n.rng.Float64() < cfg.Reorder {
			hold := cfg.ReorderDelay
			if hold <= 0 {
				hold = 500 * time.Millisecond
			}
			delay += hold
			n.mReordered.Inc()
		}
		env := env
		n.sched.After(delay, func() {
			// Fault checks again at arrival time: windows that opened
			// while the message was in flight still eat it.
			if n.crashed(env.to) {
				n.drop(n.mDropCrash)
				return
			}
			if n.partitioned(env.from, env.to) {
				n.drop(n.mDropPartition)
				return
			}
			n.deliver(env)
		})
	}
	return false
}

// drop counts a lost envelope. cause is the crash/partition counter, nil
// for random link loss.
func (n *Network) drop(cause *telemetry.Counter) {
	n.mDropped.Inc()
	if cause != nil {
		cause.Inc()
	}
}

// deliver hands an envelope to its destination node. Reports whether a
// call's reply also completed synchronously.
func (n *Network) deliver(env *envelope) bool {
	n.mDelivered.Inc()
	nd := n.nodes[env.to]
	if nd == nil {
		return false
	}
	switch {
	case env.isReply:
		pc, ok := n.pending[env.callID]
		if !ok {
			// The caller gave up (TTL) or a duplicate reply raced a
			// faster copy; idempotent handlers make this harmless.
			return false
		}
		delete(n.pending, env.callID)
		pc.cb(env.resp, env.err)
		return true
	case env.callID != 0:
		if nd.calls == nil {
			return false
		}
		resp, err := nd.calls(env.from, env.kind, env.payload)
		reply := &envelope{
			from:    env.to,
			to:      env.from,
			kind:    env.kind,
			callID:  env.callID,
			isReply: true,
			resp:    resp,
			err:     err,
		}
		return n.send(reply)
	default:
		if nd.handler != nil {
			nd.handler(env.from, env.kind, env.payload)
		}
		return false
	}
}

// Endpoint is a node's handle for originating traffic.
type Endpoint struct {
	net *Network
	id  NodeID
}

// ID returns the endpoint's node.
func (e *Endpoint) ID() NodeID { return e.id }

// Send delivers a one-way message (at-most-once).
func (e *Endpoint) Send(to NodeID, kind string, payload any) {
	e.net.send(&envelope{from: e.id, to: to, kind: kind, payload: payload})
}

// Call issues a request and invokes cb with the reply. At-most-once: if
// the request or the reply is lost, cb never fires. It reports whether
// the call completed synchronously (lossless path) — callers use this to
// skip arming retry timers.
func (e *Endpoint) Call(to NodeID, kind string, payload any, cb func(resp any, err error)) bool {
	n := e.net
	n.nextCall++
	id := n.nextCall
	completed := false
	n.pending[id] = &pendingCall{cb: func(resp any, err error) {
		completed = true
		cb(resp, err)
	}}
	n.send(&envelope{from: e.id, to: to, kind: kind, payload: payload, callID: id})
	if !completed {
		// Bound the pending table: forget the call if no reply arrives
		// within the TTL (reliable callers will have re-issued it).
		n.sched.After(callTTL, func() { delete(n.pending, id) })
	}
	return completed
}
