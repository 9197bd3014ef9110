// Package relayer implements the IBC relayer: one engine over two chain
// ends. For each direction it runs the same loop — scan the source for
// committed packets and written acks, keep the sink's light client of the
// source at a height that commits them, prove against the source, submit
// to the sink — plus timeout proofs for packets that expire undelivered,
// ICS-29 fee sweeps, and the health sample the routing plane reads.
//
// An end hides exactly what differs between chains. A cosmos end is a
// counterparty.Chain behind its netsim RPC front-end (cosmos.go). What it
// is handed — client updates, recvs, acks, timeouts — queues as messages in
// one FIFO, and it submits transactions, never datagrams: each turn takes
// everything queued, up to 30 messages, as one reliable call with one
// latency draw and one retry timer, so a header and the packets it unlocks
// travel together as ICS-18 lets a relayer bundle them. The chain applies
// the messages in order and answers each on its own; a message that failed
// (its update was refused, say) is settled by the chain's state and goes
// back to its shard, and a replayed transaction is idempotent message by
// message. The guest end is the paper's part
// (guest.go): Alg. 2's header pump decides which guest blocks the peer
// must learn, and every guest-bound datagram becomes a sequence of
// size-limited host transactions paced like a real RPC submitter — this
// is what produces the ~36.5-transaction client updates and their 25-60 s
// latency (Figs. 4-5) and the 4-5 transaction ReceivePacket flow (§V-A).
// A cosmos↔cosmos link is the engine with two cosmos ends; the guest link
// is the engine with one guest end.
//
// The engine serves any number of channels multiplexed over the link's
// one connection: work queues live in per-channel shards, while each
// direction issues at most one client update at a time and flushes every
// shard's provable work when it lands — the amortisation that keeps
// update cost flat as channels and packets grow. A shard's provable
// packets, its provable acks and its expired packets each reach the sink as
// one batch, which the guest end stages as one chunk sequence with one
// commit.
package relayer

import (
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"time"

	"repro/internal/counterparty"
	"repro/internal/cryptoutil"
	"repro/internal/guest"
	"repro/internal/host"
	"repro/internal/ibc"
	"repro/internal/netsim"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// EndConfig names one chain of the link.
type EndConfig struct {
	// Chain is a Cosmos-style chain. Nil means this end is the guest chain:
	// Contract, living on Host.
	Chain    *counterparty.Chain
	Host     *host.Chain
	Contract *guest.Contract
	// Node is the chain's RPC front-end on the simulated network (the
	// host's for the guest chain). Block notifications from it wake the
	// relayer.
	Node netsim.NodeID
	// ClientOfPeer is the light client of the other end living on this
	// chain (from Bootstrap / PairBootstrap).
	ClientOfPeer ibc.ClientID
}

// Config parameterises a relayer.
type Config struct {
	// A and B are the link's two chains, in the orientation Channels uses.
	A, B EndConfig
	// Channels lists every channel the relayer serves, one work-queue
	// shard each (at least one). A shard's metrics and seed streams are
	// named after its B-side channel.
	Channels []routing.Link
	// StrictRoutes restricts the relayer to packets whose (port, channel)
	// is in Channels. The default (false) lets stray packets ride shard 0,
	// which is right when one relayer serves the whole deployment; a mesh
	// runs several relayers against the same chains, and each must ignore
	// the others' traffic.
	StrictRoutes bool
	// TxGap is the pacing between consecutive host transaction
	// submissions (RPC + confirmation pacing of the real deployment).
	TxGap sim.Dist
	// CPLatency is the latency of submitting to a cosmos chain (not the
	// bottleneck the paper measures). On a guest link the guest end draws it
	// for its own actions on its peer — Alg. 2's header pushes and the ack
	// relay; on a cosmos↔cosmos link, where nothing else paces them, each
	// cosmos end draws it before every transaction it submits.
	CPLatency sim.Dist
	// Seed makes pacing deterministic.
	Seed int64
	// MetricsNamespace prefixes every metric this relayer writes (default
	// "relayer"). Mesh deployments run one relayer fleet per link in a
	// single process and give each a distinct per-link prefix
	// ("relayer.link.<a>-<b>") so no two links ever share a key.
	MetricsNamespace string
	// NodeID is this relayer's address on the simulated network (default
	// netsim.RelayerNode); per-link relayers register as
	// netsim.LinkRelayerNode(id) so per-link fault profiles apply.
	NodeID netsim.NodeID
	// KeyName derives the relayer's identity (default "relayer"): the key
	// that pays host fees and names it in ICS-29 fee escrows. Competing
	// relayers need distinct identities.
	KeyName string
}

// DefaultConfig returns deployment-like pacing.
func DefaultConfig() Config {
	return Config{
		// Per-transaction pacing: ~0.5 s typical RPC/confirmation gap
		// with occasional multi-second stalls (congestion, retries) —
		// together with the ~36-tx updates this yields Fig. 4's
		// 50% < 25 s / 96% < 60 s shape.
		TxGap: sim.Mixture{
			Weights: []float64{0.975, 0.025},
			Components: []sim.Dist{
				sim.LogNormal{Mu: -1.05, Sigma: 0.55, Shift: 120 * time.Millisecond, Cap: 10 * time.Second},
				sim.Uniform{Min: 2 * time.Second, Max: 9 * time.Second},
			},
		},
		CPLatency: sim.Uniform{Min: 300 * time.Millisecond, Max: 1500 * time.Millisecond},
		Seed:      42,
	}
}

// packetTrace is a packet the timeout scan may still owe a proof: one that
// carries a timeout and has not been delivered, nor seen settled.
type packetTrace struct {
	packet   *ibc.Packet
	src      uint8 // side the packet was sent from
	guest    bool  // sent from the guest end (see settle)
	inFlight bool  // a timeout submission is pending
}

// traceID keys the trace table: a packet's sending side and identity
// (channel identifiers are unique per chain, whatever the port).
type traceID struct {
	src     uint8
	channel ibc.ChannelID
	seq     uint64
}

func idOf(src int, p *ibc.Packet) traceID {
	return traceID{uint8(src), p.SourceChannel, p.Sequence}
}

// traceKey is the packet's key in the telemetry tracer.
func traceKey(p *ibc.Packet) string {
	b := make([]byte, 0, len(p.SourcePort)+len(p.SourceChannel)+22)
	b = append(b, p.SourcePort...)
	b = append(b, '/')
	b = append(b, p.SourceChannel...)
	b = append(b, '/')
	b = strconv.AppendUint(b, p.Sequence, 10)
	return string(b)
}

// work is a packet committed on its source at height, awaiting delivery.
// seen is when the relayer scanned it (zero for work an end drives
// itself).
type work struct {
	packet *ibc.Packet
	height uint64
	seen   time.Time
}

// proven is work with the commitment proof flush produced for it: the
// unit a sink is handed is the batch of one shard's packets provable at
// one client height.
type proven struct {
	work
	proof    []byte
	provedAt uint64
}

// ackWork is an ack written at height on the chain that received packet,
// awaiting relay to the chain that sent it. On the guest, height is that of
// the finalised block that commits the ack.
type ackWork struct {
	packet *ibc.Packet
	ack    []byte
	height uint64
}

// provenAck is an ack with the proof flush produced for it: the unit a sink
// is handed is the batch of one shard's acks provable at one client height.
type provenAck struct {
	ackWork
	proof    []byte
	provedAt uint64
}

// provenTimeout is a packet the timeout scan found expired, with the proof
// of its receipt's absence at provedAt on the destination: a sink is handed
// one shard's expired packets as a batch.
type provenTimeout struct {
	tr       *packetTrace
	proof    []byte
	provedAt ibc.Height
}

// header is a serialisable client update.
type header interface{ Marshal() []byte }

// end is one chain of the link as the engine sees it. Sink operations
// report their outcome through Relayer.delivered / requeue / acked /
// timedOut.
type end interface {
	// As a source: scan feeds new chain events to the engine (queuePacket,
	// or the end's own delivery schedule); head is the newest provable
	// height and its time; sendUpdate pushes the header at height to the
	// peer's client; the provers and hasCommitment read its state.
	scan()
	head() (uint64, time.Time, error)
	sendUpdate(height uint64, done func(error)) error
	proveMembership(height uint64, path string) (proof []byte, provedAt uint64, err error)
	proveNonMembership(height uint64, path string) ([]byte, error)
	hasCommitment(p *ibc.Packet) bool
	// As a sink: its client of the peer, whether its state shows a packet
	// delivered, and the four datagrams — recv, ack and timeout each take
	// one shard's work as a batch. inOrder reports whether the end applies
	// what it is handed strictly in the order handed over, so work may be
	// queued behind the update that unlocks it.
	client() (ibc.Client, error)
	packetDelivered(p *ibc.Packet) bool
	inOrder() bool
	updateClient(h header, done func(error))
	recvPackets(s *shard, batch []proven)
	ackPackets(s *shard, batch []provenAck)
	timeoutPackets(s *shard, batch []provenTimeout)
	// sinkNames are the per-channel counters of packets and acks landing
	// here; backlog is work queued inside the end.
	sinkNames() (delivered, acked string)
	backlog() int
}

// chanKey indexes shards by one side's (port, channel).
type chanKey struct {
	port    ibc.PortID
	channel ibc.ChannelID
}

// shard is the per-channel slice of the relayer. packets[i] and acks[i]
// are proven against end i and submitted to its peer once the peer's
// client reaches their height; the counters are indexed by the side the
// work lands on.
type shard struct {
	index   int
	packets [2][]work
	acks    [2][]ackWork

	cDelivered [2]*telemetry.Counter
	cAcked     [2]*telemetry.Counter
	cTimeouts  *telemetry.Counter
}

// direction is the client-update state for work sourced on one side: at
// most one update in flight, and a height-only pull request (the timeout
// scan asks for the client to advance without queueing a packet).
type direction struct {
	inFlight bool
	want     uint64
}

// Relayer relays one link, serving every channel in Config.Channels.
type Relayer struct {
	cfg   Config
	ns    string
	sched *sim.Scheduler
	// rng is the Seed root stream: the guest end's client-update pacer,
	// first lane and header pump draw from it, as do cosmos op latencies.
	rng *rand.Rand
	key *cryptoutil.PrivKey

	ep    *netsim.Endpoint
	retry netsim.RetryPolicy

	ends   [2]end
	nodes  [2]netsim.NodeID // the ends' front-ends, whose blocks wake the relayer
	shards []*shard
	byChan [2]map[chanKey]*shard
	dirs   [2]direction

	// TotalFees is what the host charged for the transactions the guest end
	// submitted.
	TotalFees host.Lamports

	// traces holds the packets CheckTimeouts may still owe a timeout proof:
	// recorded with a timeout, not yet delivered, and not yet seen settled.
	// The scan walks it, so its cost follows the undelivered packets rather
	// than the link's history.
	traces map[traceID]*packetTrace

	// Telemetry (all nil-safe no-ops unless WithTelemetry was given). Every
	// measurement the relayer makes lives here.
	tel            *telemetry.Telemetry
	tracer         *telemetry.Tracer
	mClientUpdates *telemetry.Counter
	mDelivered     *telemetry.Counter
	mAcks          *telemetry.Counter
	mTimeouts      *telemetry.Counter
	mLostRace      *telemetry.Counter
	mHopLatency    *telemetry.Histogram
	mNetRetries    *telemetry.Counter
	mNetDead       *telemetry.Counter

	// healthLat is the EWMA delivery latency (seconds) behind Health();
	// healthSeen marks the first observation.
	healthLat  float64
	healthSeen bool

	// feeEscrows are the fee middlewares this relayer earns from
	// (registered by the deployment wiring); ClaimFees sweeps them.
	feeEscrows []FeeClaimer
}

// FeeClaimer is a fee escrow the relayer can claim accrued packet fees
// from, keyed by the relayer's payee identity (implemented by
// middleware.Fees).
type FeeClaimer interface {
	Claim(payee string) map[string]uint64
}

// Option configures a Relayer.
type Option func(*Relayer)

// WithTelemetry wires the relayer's metrics and per-packet lifecycle
// tracer into t.
func WithTelemetry(t *telemetry.Telemetry) Option {
	return func(r *Relayer) { r.tel = t }
}

// New creates a relayer on net (a zero-value netsim config is lossless
// and synchronous). Host submissions and chain handler operations are
// reliable (retry-with-backoff) calls; block notifications are wake-ups
// followed by cursor pulls, so a dropped one only delays work. A relayer
// with a guest end pays host fees from Key(), which must be funded.
func New(cfg Config, sched *sim.Scheduler, net *netsim.Network, opts ...Option) (*Relayer, error) {
	if cfg.MetricsNamespace == "" {
		cfg.MetricsNamespace = "relayer"
	}
	if cfg.NodeID == "" {
		cfg.NodeID = netsim.RelayerNode
	}
	if cfg.KeyName == "" {
		cfg.KeyName = "relayer"
	}
	r := &Relayer{
		cfg:    cfg,
		ns:     cfg.MetricsNamespace,
		sched:  sched,
		rng:    rand.New(rand.NewSource(cfg.Seed)),
		key:    cryptoutil.GenerateKey(cfg.KeyName),
		retry:  netsim.DefaultRetryPolicy(),
		traces: make(map[traceID]*packetTrace),
	}
	for _, o := range opts {
		o(r)
	}
	var reg *telemetry.Registry
	if r.tel != nil {
		reg = r.tel.Metrics
		r.tracer = r.tel.Tracer
	}
	r.mClientUpdates = reg.Counter(r.ns + ".client_updates")
	r.mDelivered = reg.Counter(r.ns + ".delivered")
	r.mAcks = reg.Counter(r.ns + ".acks")
	r.mTimeouts = reg.Counter(r.ns + ".timeouts_submitted")
	r.mLostRace = reg.Counter(r.ns + ".lost_race")
	r.mHopLatency = reg.Histogram(r.ns + ".hop.latency_s")
	r.mNetRetries = reg.Counter(r.ns + ".net_retries")
	r.mNetDead = reg.Counter(r.ns + ".net_dead_letters")
	r.ep = net.Node(cfg.NodeID, r.onNetMessage, nil)

	r.byChan = [2]map[chanKey]*shard{{}, {}}
	for i, ch := range cfg.Channels {
		s := &shard{index: i}
		r.shards = append(r.shards, s)
		r.byChan[0][chanKey{ch.PortA, ch.ChannelA}] = s
		r.byChan[1][chanKey{ch.PortB, ch.ChannelB}] = s
	}
	// Nothing else paces the ends of a cosmos↔cosmos link; on a guest link
	// the guest end paces what it sends.
	var opLatency sim.Dist
	if cfg.A.Chain != nil && cfg.B.Chain != nil {
		opLatency = cfg.CPLatency
	}
	for side, ec := range [2]EndConfig{cfg.A, cfg.B} {
		r.nodes[side] = ec.Node
		if ec.Chain != nil {
			r.ends[side] = &cosmosEnd{r: r, side: side, chain: ec.Chain, node: ec.Node, clientID: ec.ClientOfPeer, opLatency: opLatency}
			continue
		}
		g, err := newGuestEnd(r, side, ec, reg)
		if err != nil {
			return nil, err
		}
		r.ends[side] = g
	}
	for i, s := range r.shards {
		ns := r.ns + ".ch." + string(cfg.Channels[i].ChannelB) + "."
		for side, e := range r.ends {
			delivered, acked := e.sinkNames()
			s.cDelivered[side] = reg.Counter(ns + delivered)
			s.cAcked[side] = reg.Counter(ns + acked)
		}
		s.cTimeouts = reg.Counter(ns + "timeouts")
	}
	return r, nil
}

// Key returns the relayer's key; a guest end signs and pays its host
// transactions with it.
func (r *Relayer) Key() *cryptoutil.PrivKey { return r.key }

// PayeeID is the relayer's identity in fee escrows (ICS-29 payee): the
// string form of its public key.
func (r *Relayer) PayeeID() string { return r.key.Public().String() }

// RegisterFeeClaimer adds a fee escrow this relayer earns from. The
// deployment wiring registers the fee middleware of every stack whose
// packets this relayer delivers.
func (r *Relayer) RegisterFeeClaimer(c FeeClaimer) {
	if c != nil {
		r.feeEscrows = append(r.feeEscrows, c)
	}
}

// ClaimFees sweeps accrued packet fees from every registered escrow into
// the relayer's bank balance and returns the total claimed per denom.
// Scheduled periodically by the deployment (and once more at drain).
func (r *Relayer) ClaimFees() map[string]uint64 {
	var total map[string]uint64
	for _, esc := range r.feeEscrows {
		for denom, amt := range esc.Claim(r.PayeeID()) {
			if total == nil {
				total = make(map[string]uint64)
			}
			total[denom] += amt
		}
	}
	return total
}

// healthDecay is the EWMA weight of each new latency observation.
const healthDecay = 0.2

// observeLatency folds one delivery-latency sample (seconds) into the
// health EWMA. The ends call it wherever their latency histogram
// observes, so health tracks exactly what the histograms record.
func (r *Relayer) observeLatency(s float64) {
	if r.healthSeen {
		s = healthDecay*s + (1-healthDecay)*r.healthLat
	}
	r.healthLat, r.healthSeen = s, true
}

// Health is the sample the adaptive routing plane scores the link by: the
// EWMA delivery latency, the cumulative dead-letter count of the
// relayer's reliable calls, and every queue a packet can wait in — shard
// work plus whatever the ends hold.
func (r *Relayer) Health() routing.LinkHealth {
	backlog := r.ends[0].backlog() + r.ends[1].backlog()
	for _, s := range r.shards {
		for side := range s.packets {
			backlog += len(s.packets[side]) + len(s.acks[side])
		}
	}
	return routing.LinkHealth{Latency: r.healthLat, DeadLetters: r.mNetDead.Value(), Backlog: backlog}
}

// call issues one reliable call with the relayer's retry accounting.
func (r *Relayer) call(to netsim.NodeID, kind string, payload any, done func(resp any, err error)) {
	obs := netsim.RetryObserver{Retries: r.mNetRetries, DeadLetters: r.mNetDead}
	r.ep.ReliableCall(to, kind, payload, r.retry, obs, done)
}

// onNetMessage consumes block notifications: the sender identifies which
// end produced a block. The notification is only a wake-up — the end
// pulls everything since its cursor, so a dropped one loses nothing.
func (r *Relayer) onNetMessage(from netsim.NodeID, _ string, _ any) {
	for side, node := range r.nodes {
		if node == from {
			r.ends[side].scan()
			r.maybeUpdate(side)
		}
	}
}

// route resolves the shard serving side's (port, channel). Unknown routes
// are foreign traffic (nil) in strict mode and ride shard 0 otherwise.
func (r *Relayer) route(side int, port ibc.PortID, channel ibc.ChannelID) *shard {
	if s, ok := r.byChan[side][chanKey{port, channel}]; ok || r.cfg.StrictRoutes {
		return s
	}
	return r.shards[0]
}

// canExpire reports whether p carries a timeout.
func canExpire(p *ibc.Packet) bool {
	return p.TimeoutHeight != 0 || !p.TimeoutTimestamp.IsZero()
}

// track traces a packet committed on side src, if it can expire: the
// timeout scan may come to owe it a proof.
func (r *Relayer) track(src int, p *ibc.Packet, guest bool) {
	if canExpire(p) {
		r.traces[idOf(src, p)] = &packetTrace{packet: p, src: uint8(src), guest: guest}
	}
}

// mark records stage, now, in the tracer for a packet sent from side src.
// Only the guest end's packets are traced (Fig. 2).
func (r *Relayer) mark(src int, p *ibc.Packet, stage string) {
	if _, guest := r.ends[src].(*guestEnd); guest {
		r.tracer.Mark(traceKey(p), stage, r.sched.Now())
	}
}

// queuePacket records a packet committed on side src at height.
func (r *Relayer) queuePacket(src int, p *ibc.Packet, height uint64) {
	s := r.route(src, p.SourcePort, p.SourceChannel)
	if s == nil {
		return
	}
	s.packets[src] = append(s.packets[src], work{packet: p, height: height, seen: r.sched.Now()})
	r.track(src, p, false)
}

// maybeUpdate keeps the peer's client of side src where src's queued work
// needs it: with nothing above the client's height it flushes; otherwise
// it sends one update to src's head — one header covers every shard — and
// flushes at that height: right behind the update when the sink keeps
// order, so header and datagrams share a transaction, and in any case when
// the update lands — at the height the client then holds, which is below
// the target when the sink refused the update in execution (the guest's
// pacer sees its transactions submitted, not applied); the maybeUpdate that
// follows sends the next one. The update count therefore depends on block
// cadence and backlog arrival, not on the number of channels or packets,
// which is the amortisation the paper's cost model (§V, Tables II-III)
// relies on.
func (r *Relayer) maybeUpdate(src int) {
	d := &r.dirs[src]
	if d.inFlight {
		return
	}
	client, err := r.ends[1-src].client()
	if err != nil {
		return
	}
	known := uint64(client.LatestHeight())
	needed := uint64(0)
	need := func(height uint64) {
		if height > known && height > needed {
			needed = height
		}
	}
	need(d.want)
	for _, s := range r.shards {
		for _, w := range s.packets[src] {
			need(w.height)
		}
		for _, w := range s.acks[src] {
			need(w.height)
		}
	}
	if needed == 0 {
		r.flush(src, known)
		return
	}
	target, _, err := r.ends[src].head()
	if err != nil {
		return
	}
	d.inFlight = true
	err = r.ends[src].sendUpdate(target, func(err error) {
		d.inFlight = false
		if err != nil {
			return
		}
		height := target
		if client, err := r.ends[1-src].client(); err == nil {
			height = min(target, uint64(client.LatestHeight()))
		}
		if height == target {
			r.mClientUpdates.Inc()
		}
		r.flush(src, height)
		// More backlog may have arrived meanwhile.
		r.maybeUpdate(src)
	})
	if err != nil {
		d.inFlight = false
		return
	}
	if r.ends[1-src].inOrder() {
		// Should the sink refuse the update, what rides behind it fails on
		// the missing consensus state and goes back to its shard.
		r.flush(src, target)
	}
}

// flush submits every shard's work sourced on src and provable at or
// below height, proving it at height: the item's own height may carry no
// consensus state on the peer's client when delivery was delayed past an
// update, but commitments persist, so a proof at the newer height
// verifies. Items whose proof cannot be produced stay queued.
func (r *Relayer) flush(src int, height uint64) {
	r.dirs[src].want = 0
	from, to := r.ends[src], r.ends[1-src]
	for _, s := range r.shards {
		var later []work
		var batch []proven
		for _, w := range s.packets[src] {
			if w.height <= height {
				path := ibc.CommitmentPath(w.packet.SourcePort, w.packet.SourceChannel, w.packet.Sequence)
				if proof, provedAt, err := from.proveMembership(height, path); err == nil {
					batch = append(batch, proven{w, proof, provedAt})
					continue
				}
			}
			later = append(later, w)
		}
		s.packets[src] = later
		if len(batch) > 0 {
			to.recvPackets(s, batch)
		}

		// A sink may settle an ack before ackPackets returns, and a refused
		// one goes back to the shard behind what stays.
		var laterAcks []ackWork
		var acks []provenAck
		for _, w := range s.acks[src] {
			if w.height <= height {
				path := ibc.AckPath(w.packet.DestPort, w.packet.DestChannel, w.packet.Sequence)
				if proof, provedAt, err := from.proveMembership(height, path); err == nil {
					acks = append(acks, provenAck{w, proof, provedAt})
					continue
				}
			}
			laterAcks = append(laterAcks, w)
		}
		s.acks[src] = laterAcks
		if len(acks) > 0 {
			to.ackPackets(s, acks)
		}
	}
}

// delivered records that p landed on side to. A sink that answers with
// the written ack has it relayed once the ack's height is provable; the
// guest end relays its own (they ride finalised guest blocks).
func (r *Relayer) delivered(to int, s *shard, p *ibc.Packet, ack []byte, provableAt uint64, duplicate bool) {
	// A packet that arrived can no longer time out, whoever delivered it:
	// only its ack is pending.
	delete(r.traces, idOf(1-to, p))
	if duplicate {
		// A competing relayer won this packet: record the loss and stand
		// down — the winner counts the delivery, relays the ack, and
		// claims the fee.
		r.mLostRace.Inc()
		return
	}
	r.mark(1-to, p, telemetry.StageRecv)
	r.mDelivered.Inc()
	s.cDelivered[to].Inc()
	if ack != nil {
		s.acks[to] = append(s.acks[to], ackWork{packet: p, ack: ack, height: provableAt})
	}
}

// recvFailed settles a recv whose submission to side to failed — the update
// ahead of it was refused, so its proof height has no consensus state; a
// chunk of its job was dead-lettered — by the sink's state: a packet the
// sink shows delivered is delivered, any other goes back to its shard. A
// packet already expired at the sink's head is left to the timeout scan:
// every flush would submit it again to be rejected again, and on the guest,
// where the relayer cannot see a transaction fail in execution, the
// resubmission would count it delivered and its sender would never be
// refunded.
func (r *Relayer) recvFailed(to int, s *shard, w work) {
	sink := r.ends[to]
	if sink.packetDelivered(w.packet) {
		r.delivered(to, s, w.packet, nil, 0, false)
		return
	}
	if h, t, err := sink.head(); err == nil && w.packet.TimedOut(ibc.Height(h), t) {
		return
	}
	r.requeue(to, s, w)
}

// requeue takes back work whose submission to side to failed and whose
// sink does not show it delivered, for the next flush to prove and submit
// again. It goes back in sequence order, ahead of packets queued since: an
// ordered channel accepts no other. Once the source no longer commits the
// packet (acked through another relayer, or timed out) there is nothing
// left to deliver. Work an end drives itself never was on a shard: the
// guest's header pump hands a block's packets over once, and what the sink
// rejects is the timeout scan's.
func (r *Relayer) requeue(to int, s *shard, w work) {
	src := 1 - to
	if w.seen.IsZero() || !r.ends[src].hasCommitment(w.packet) {
		return
	}
	q := s.packets[src]
	i := sort.Search(len(q), func(i int) bool { return q[i].packet.Sequence > w.packet.Sequence })
	s.packets[src] = slices.Insert(q, i, w)
}

// requeueAck takes back an ack a sink refused — one flush handed over, or
// one the guest end relayed itself behind its block's header — for the next
// flush to prove and submit again, once the peer's client reaches its
// height, while to still commits the packet: once it does not, the packet
// is settled.
func (r *Relayer) requeueAck(to int, s *shard, w ackWork) {
	if r.ends[to].hasCommitment(w.packet) {
		s.acks[1-to] = append(s.acks[1-to], w)
	}
}

// acked records the outcome of relaying p's ack to side to, which sent p.
func (r *Relayer) acked(to int, s *shard, p *ibc.Packet, err error) {
	if err != nil {
		return
	}
	r.mAcks.Inc()
	s.cAcked[to].Inc()
	r.settle(to, p, telemetry.StageAck)
}

// timedOut records the outcome of a timeout submission. The in-flight
// flag clears either way, so a dropped submission is retried by a later
// scan.
func (r *Relayer) timedOut(tr *packetTrace, err error) {
	tr.inFlight = false
	if err == nil {
		r.settle(int(tr.src), tr.packet, telemetry.StageTimeout)
	}
}

// settle closes the trace of a packet sent from side src that was acked or
// timed out. A guest-sent one stays open until a scan sees its commitment
// gone: the relayer cannot see a host transaction fail in execution, and a
// timeout the guest rejected has to be submitted again.
func (r *Relayer) settle(src int, p *ibc.Packet, stage string) {
	id := idOf(src, p)
	if tr := r.traces[id]; tr != nil && !tr.guest {
		delete(r.traces, id)
	}
	r.mark(src, p, stage)
}

// CheckTimeouts submits a receipt non-membership proof to the sending
// chain for every open packet whose timeout has provably elapsed
// (unordered channels).
func (r *Relayer) CheckTimeouts() { r.submitTimeouts(r.expirable()) }

// expirable walks the traces and returns those a timeout may be submitted
// for now, closing the ones whose source no longer commits them (acked
// through another relayer, or timed out).
func (r *Relayer) expirable() []*packetTrace {
	var expired []*packetTrace
	for id, tr := range r.traces {
		switch {
		case !r.ends[tr.src].hasCommitment(tr.packet):
			delete(r.traces, id)
		case tr.inFlight:
		default:
			expired = append(expired, tr)
		}
	}
	return expired
}

// submitTimeouts proves and submits the timeouts among expired that have
// elapsed. The candidates come out of a map: they are ordered by (sending
// side, port, channel, sequence), so two packets expiring in the same scan
// are submitted in the same order on every run. That order groups a shard's
// candidates on each side — both ends may number a channel alike, so the
// side comes first — and each run of them goes to the sending end as one
// batch, handed over before any client update the scan pulls, so a sink's
// queue sees every timeout in candidate order.
func (r *Relayer) submitTimeouts(expired []*packetTrace) {
	sort.Slice(expired, func(i, j int) bool {
		a, b := expired[i].packet, expired[j].packet
		if expired[i].src != expired[j].src {
			return expired[i].src < expired[j].src
		}
		if a.SourcePort != b.SourcePort {
			return a.SourcePort < b.SourcePort
		}
		if a.SourceChannel != b.SourceChannel {
			return a.SourceChannel < b.SourceChannel
		}
		return a.Sequence < b.Sequence
	})
	var batch []provenTimeout
	var batchShard *shard
	batchSrc := 0
	submit := func() {
		if len(batch) > 0 {
			r.ends[batchSrc].timeoutPackets(batchShard, batch)
			batch = nil
		}
	}
	for _, tr := range expired {
		p, src, dst := tr.packet, int(tr.src), 1-int(tr.src)
		// The timeout must have elapsed as observable through the sending
		// chain's client of the destination — proofs are anchored at a
		// height that client already trusts.
		client, err := r.ends[src].client()
		if err != nil {
			continue
		}
		known := client.LatestHeight()
		knownTime, err := client.ConsensusTime(known)
		if err != nil {
			continue
		}
		if !p.TimedOut(known, knownTime) {
			// Not provable yet at the trusted height. If the destination's
			// live head is already past the timeout, pull the client
			// forward so a later scan can prove it.
			if h, t, err := r.ends[dst].head(); err == nil && p.TimedOut(ibc.Height(h), t) {
				if h > r.dirs[dst].want {
					r.dirs[dst].want = h
				}
				submit()
				r.maybeUpdate(dst)
			}
			continue
		}
		proof, err := r.ends[dst].proveNonMembership(uint64(known), ibc.ReceiptPath(p.DestPort, p.DestChannel, p.Sequence))
		if err != nil {
			continue
		}
		s := r.route(src, p.SourcePort, p.SourceChannel)
		if s != batchShard || src != batchSrc {
			submit()
			batchShard, batchSrc = s, src
		}
		tr.inFlight = true
		r.mTimeouts.Inc()
		s.cTimeouts.Inc()
		batch = append(batch, provenTimeout{tr, proof, known})
	}
	submit()
}
