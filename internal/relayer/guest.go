package relayer

import (
	"errors"
	"math/rand"
	"time"

	"repro/internal/fees"
	"repro/internal/guest"
	"repro/internal/host"
	"repro/internal/ibc"
	"repro/internal/lightclient/tendermint"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// guestEnd is the guest blockchain: a contract on the host chain.
//
// As a source it does not queue work for the engine's update rule. Alg. 2
// decides which guest headers its peer must learn — every finalised block
// that carries packets or rotates the epoch, in height order — and the
// block's packets follow each header; acks written on the guest ride the
// next finalised block the same way.
//
// As a sink every datagram becomes a sequence of size-limited host
// transactions submitted by a pacer, one per channel plus the root pacer
// client updates share with the first channel.
type guestEnd struct {
	r       *Relayer
	side    int
	host    *host.Chain
	st      *guest.State
	node    netsim.NodeID
	builder *guest.TxBuilder
	// clientID is the guest's client of the peer.
	clientID ibc.ClientID

	cursor host.Slot // last host block scanned

	// lanes[i] is shard i's paced submitter and ack backlog; root is lane
	// 0's pacer. queuedJobs aggregates job-queue depth across all pacers.
	lanes      []*lane
	root       *pacer
	queuedJobs int64

	// headers serialises header pushes in finalisation (= height) order.
	// With pipelined guest blocks a quorum cascade finalises several
	// entries at once; racing their updates over independently sampled
	// latencies would let a later height land first, making the earlier
	// ones stale at the peer's client and silently stranding their
	// packets.
	headers    []*guest.BlockEntry
	headerBusy bool
	// pushed is the highest guest height whose consensus state is known to
	// be installed on the peer's client — by the header pump or by a prune
	// fall-forward in proveMembership. Deliveries prove at least at this
	// height: when a fall-forward advances the client past a queued
	// header, that header's own height will never gain a consensus state,
	// so proofs at it would be unverifiable.
	pushed uint64

	mUpdLatency *telemetry.Histogram
	mUpdTxs     *telemetry.Histogram
	mUpdCost    *telemetry.Histogram
	mUpdSigs    *telemetry.Histogram
	mRecvTxs    *telemetry.Histogram
	mRecvCost   *telemetry.Histogram
	mJobLatency *telemetry.Histogram
	mQueueDepth *telemetry.Gauge
}

// lane is the guest end's per-channel state.
type lane struct {
	pc *pacer
	// rng paces this lane's peer-side latency draws.
	rng *rand.Rand
	// ackBacklog holds peer-sent packets delivered on the guest whose acks
	// still need relaying back.
	ackBacklog []ackWork
}

func newGuestEnd(r *Relayer, side int, ec EndConfig, reg *telemetry.Registry) (*guestEnd, error) {
	st, err := ec.Contract.State(ec.Host)
	if err != nil {
		return nil, err
	}
	g := &guestEnd{
		r: r, side: side, host: ec.Host, st: st, node: ec.Node, clientID: ec.ClientOfPeer,
		builder: guest.NewTxBuilderForProfile(ec.Contract, r.key.Public(), ec.Host.Profile()),
		// Start the block cursor at the current slot: bootstrap blocks
		// predate the relayer and were already handled.
		cursor: ec.Host.Slot(),
	}
	g.mUpdLatency = reg.Histogram(r.ns + ".update.latency_s")
	g.mUpdTxs = reg.Histogram(r.ns + ".update.txs")
	g.mUpdCost = reg.Histogram(r.ns + ".update.cost_cents")
	g.mUpdSigs = reg.Histogram(r.ns + ".update.sigs")
	g.mRecvTxs = reg.Histogram(r.ns + ".recv.txs")
	g.mRecvCost = reg.Histogram(r.ns + ".recv.cost_cents")
	g.mJobLatency = reg.Histogram(r.ns + ".job.latency_s")
	g.mQueueDepth = reg.Gauge(r.ns + ".queue_depth")
	// Lane 0 rides the relayer's root stream (single-channel byte
	// identity); every later lane derives its own deterministic streams
	// from the scenario seed and the channel ID.
	g.root = &pacer{g: g, rng: r.rng}
	for i, ch := range r.cfg.Channels {
		l := &lane{pc: g.root, rng: r.rng}
		if i > 0 {
			seed := sim.DeriveSeed(r.cfg.Seed, "relayer/ch/"+string(ch.ChannelB))
			l.rng = rand.New(rand.NewSource(seed))
			l.pc = &pacer{g: g, rng: rand.New(rand.NewSource(sim.DeriveSeed(seed, "pacing")))}
		}
		g.lanes = append(g.lanes, l)
	}
	return g, nil
}

func (g *guestEnd) peer() end { return g.r.ends[1-g.side] }

func (g *guestEnd) sinkNames() (string, string) { return "recv_submitted", "acks_to_guest" }

func (g *guestEnd) backlog() int {
	n := int(g.queuedJobs) + len(g.headers)
	for _, l := range g.lanes {
		n += len(l.ackBacklog)
	}
	return n
}

// --- source ---

// scan processes the host blocks since the cursor.
func (g *guestEnd) scan() {
	r := g.r
	for _, b := range g.host.BlocksSince(g.cursor) {
		g.cursor = b.Slot
		for _, ev := range b.Events {
			switch e := ev.Payload.(type) {
			case guest.EventFinalisedBlock:
				g.onFinalised(e.Entry)
				g.relayAcks(e.Entry)
			case guest.EventPacketDelivered:
				// A peer-sent packet was delivered on the guest; its ack
				// needs to ride a finalised guest block back.
				p := e.Packet
				if s := r.route(g.side, p.DestPort, p.DestChannel); s != nil {
					l := g.lanes[s.index]
					l.ackBacklog = append(l.ackBacklog, ackWork{packet: p, ack: e.Ack})
				}
			case ibc.EventSendPacket:
				p := e.Packet
				if r.route(g.side, p.SourcePort, p.SourceChannel) == nil {
					continue
				}
				r.track(g.side, p, true)
				// Send and commit coincide on the guest: the commitment is
				// written in the same host transaction as SendPacket.
				key := traceKey(p)
				r.tracer.Mark(key, telemetry.StageSend, ev.Time)
				r.tracer.Mark(key, telemetry.StageCommit, ev.Time)
			}
		}
	}
}

// onFinalised handles a finalised guest block: forward it to the peer's
// light client if it carries packets or rotates the epoch (Alg. 2), then
// deliver its packets with proofs. One header update covers every
// channel's packets in the block.
func (g *guestEnd) onFinalised(entry *guest.BlockEntry) {
	r := g.r
	owned := 0
	for _, p := range entry.Packets {
		if r.route(g.side, p.SourcePort, p.SourceChannel) == nil {
			continue
		}
		owned++
		key := traceKey(p)
		r.tracer.Mark(key, telemetry.StageFinalise, entry.FinalisedAt)
		r.tracer.Mark(key, telemetry.StagePickup, r.sched.Now())
	}
	// Epoch rotations gate every client of the guest chain: push the
	// header even when the block carries no packets this relayer serves.
	if owned == 0 && entry.Block.NextEpoch == nil {
		return
	}
	g.headers = append(g.headers, entry)
	g.pumpHeaders()
}

// pumpHeaders dispatches at most one header update at a time, in queue
// order. Busy covers only the UpdateClient round-trip; packet deliveries
// unlocked by an update do not hold up the next header.
func (g *guestEnd) pumpHeaders() {
	for !g.headerBusy && len(g.headers) > 0 {
		entry := g.headers[0]
		g.headers = g.headers[1:]
		height := entry.Block.Height
		if height <= g.pushed {
			// A prune fall-forward already advanced the client past this
			// height, so the header would be rejected as stale and its
			// consensus state will never install. Skip the round-trip and
			// prove the packets against the advanced height instead.
			g.deliverEntry(entry)
			continue
		}
		sb := entry.SignedBlock()
		g.headerBusy = true
		g.r.sched.After(g.r.cfg.CPLatency.Sample(g.r.rng), func() {
			g.pushHeader(height, sb, func(err error) {
				g.headerBusy = false
				if err == nil {
					g.deliverEntry(entry)
				}
				g.pumpHeaders()
			})
		})
	}
}

// pushHeader sends a guest header to the peer's client and records the
// height on success, so deliveries never prove below what the client is
// known to hold. Every header push must go through here: out-of-band
// pushes (ack relaying, prune fall-forward) can advance the client past
// heights still queued in the header pump, and those heights' consensus
// states then never install.
func (g *guestEnd) pushHeader(height uint64, h header, done func(error)) {
	g.peer().updateClient(h, func(err error) {
		if err == nil && height > g.pushed {
			g.pushed = height
		}
		done(err)
	})
}

// deliverEntry relays entry's packets to the peer with proofs at the
// newest height its client is known to hold — at least the entry's own
// height, higher when a fall-forward advanced the client. Packet
// commitments persist in guest state until acked, so a later root still
// commits them.
func (g *guestEnd) deliverEntry(entry *guest.BlockEntry) {
	proveAt := entry.Block.Height
	if g.pushed > proveAt {
		proveAt = g.pushed
	}
	for _, p := range entry.Packets {
		s := g.r.route(g.side, p.SourcePort, p.SourceChannel)
		if s == nil {
			continue
		}
		path := ibc.CommitmentPath(p.SourcePort, p.SourceChannel, p.Sequence)
		if proof, provedAt, err := g.proveMembership(proveAt, path); err == nil {
			// One call per packet keeps the block's packets in block order
			// on the peer's FIFO whatever channels they interleave.
			g.peer().recvPackets(s, []proven{{work{packet: p}, proof, provedAt}})
		}
	}
}

// relayAcks forwards acks for peer-sent packets delivered on the guest,
// now that a finalised guest block commits them. Each carries that block's
// height, so an ack the peer refuses (a header that landed out of order
// left its client without this block) goes to the engine's ack queue, and
// the engine updates the client to reach it and submits it again. Each ack
// travels after its own latency draw from the lane's stream: lane 0 shares
// the root stream with the client-update pacer, so one draw per block would
// move every run whose guest receives packets.
func (g *guestEnd) relayAcks(entry *guest.BlockEntry) {
	height := entry.Block.Height
	for i, l := range g.lanes {
		s := g.r.shards[i]
		var remaining []ackWork
		for _, w := range l.ackBacklog {
			w.height = height
			path := ibc.AckPath(w.packet.DestPort, w.packet.DestChannel, w.packet.Sequence)
			proof, provedAt, err := g.proveMembership(height, path)
			if err != nil {
				remaining = append(remaining, w)
				continue
			}
			ack := []provenAck{{w, proof, provedAt}}
			g.r.sched.After(g.r.cfg.CPLatency.Sample(l.rng), func() {
				// The peer's client must know this block first; its FIFO
				// keeps the update ahead of the ack.
				g.pushHeader(height, entry.SignedBlock(), func(error) {})
				g.peer().ackPackets(s, ack)
			})
		}
		l.ackBacklog = remaining
	}
}

func (g *guestEnd) head() (uint64, time.Time, error) {
	e := g.st.LatestFinalised()
	if e == nil {
		return 0, time.Time{}, errors.New("relayer: no finalised guest block")
	}
	return e.Block.Height, e.Block.Time, nil
}

func (g *guestEnd) sendUpdate(height uint64, done func(error)) error {
	entry, err := g.st.Entry(height)
	if err != nil {
		return err
	}
	g.pushHeader(height, entry.SignedBlock(), done)
	return nil
}

// proveMembership proves path against the guest block at height,
// recovering from a pruned snapshot by re-proving at the newest finalised
// block whose version is still retained (ErrSnapshotPruned means "retry
// against a newer root", unlike ErrUnknownHeight). When it falls forward
// it also pushes that block to the peer's client, so the caller can submit
// the proof at the returned height immediately.
func (g *guestEnd) proveMembership(height uint64, path string) (proof []byte, provedAt uint64, err error) {
	_, proof, err = g.st.ProveMembershipAt(height, path)
	if err == nil {
		return proof, height, nil
	}
	if !errors.Is(err, guest.ErrSnapshotPruned) {
		return nil, 0, err
	}
	latest := g.st.LatestFinalised()
	if latest == nil || latest.Block.Height <= height {
		return nil, 0, err
	}
	newHeight := latest.Block.Height
	_, proof, err = g.st.ProveMembershipAt(newHeight, path)
	if err != nil {
		return nil, 0, err
	}
	// The peer's FIFO puts this update ahead of any recv/ack the caller
	// submits with the returned height, and its completion runs before
	// that of any update pushed after it — later pump iterations observe
	// pushed before their own callbacks deliver.
	g.pushHeader(newHeight, latest.SignedBlock(), func(error) {})
	return proof, newHeight, nil
}

func (g *guestEnd) proveNonMembership(height uint64, path string) ([]byte, error) {
	return g.st.ProveNonMembershipAt(height, path)
}

func (g *guestEnd) hasCommitment(p *ibc.Packet) bool { return g.st.Handler.HasCommitment(p) }

// --- sink ---

func (g *guestEnd) client() (ibc.Client, error) { return g.st.Handler.Client(g.clientID) }

func (g *guestEnd) packetDelivered(p *ibc.Packet) bool { return g.st.Handler.PacketDelivered(p) }

// inOrder is false: an update rides the root pacer and every channel's
// datagrams their own lane, so only the update's landing orders them.
func (g *guestEnd) inOrder() bool { return false }

// updateClient stages a peer header across chunk transactions whose
// precompile entries verify the commit signatures (§IV), on the root
// pacer.
func (g *guestEnd) updateClient(h header, done func(error)) {
	update := h.(*tendermint.Update)
	sigs := make([]guest.SigBatch, 0, len(update.Commit))
	headerHash := update.Header.Hash()
	for _, cs := range update.Commit {
		payload := tendermint.VotePayload(headerHash, cs.Timestamp)
		sigs = append(sigs, guest.SigBatch{Pub: cs.PubKey, Payload: payload[:], Sig: cs.Signature})
	}
	txs := g.builder.UpdateClientTxs(g.clientID, update.Marshal(), sigs)
	cost := g.feeOf(txs)
	g.root.enqueue(txs, func(started, finished time.Time, err error) {
		if err == nil {
			// Fig. 4's latency is first-tx landing to last-tx landing.
			g.mUpdLatency.Observe(finished.Sub(started).Seconds())
			g.mUpdTxs.Observe(float64(len(txs)))
			g.mUpdCost.Observe(fees.Cents(cost))
			g.mUpdSigs.Observe(float64(len(sigs)))
		}
		done(err)
	})
}

// recvPackets, ackPackets and timeoutPackets run a datagram flow for one
// shard's batch: as few jobs as the host's per-invocation limits allow
// (the builder's batch rule), each on the shard's lane, one chunk sequence
// staging its payloads back to back and one commit that applies them all —
// 4-5 transactions for a packet on its own, under one per packet at depth.
// A shard hands over its work in sequence order and requeue keeps that
// order, so neighbours in a batch are neighbouring leaves of the proving
// chain's trie: their proofs differ in the deepest item or two, and the
// staging format (guest.MarshalRecvPayload and its siblings) uploads the
// part they share once. A job whose submission failed (a dead-lettered
// chunk takes everything staged with it) hands each item back to the
// engine's rule for its kind; a job submitted in full settles every item,
// as an item on its own always was: the relayer does not see a host
// transaction fail in execution, and a commit the guest rejected loses the
// same items whether they shared it or not (ROADMAP 1b).
func (g *guestEnd) recvPackets(s *shard, batch []proven) {
	payloads := make([]*guest.RecvPayload, len(batch))
	for i, w := range batch {
		payloads[i] = &guest.RecvPayload{Packet: w.packet, ProofHeight: ibc.Height(w.provedAt), Proof: w.proof}
	}
	jobs(batch, payloads, func(ps []*guest.RecvPayload) int { return g.builder.RecvBatchLen(ps, g.st) },
		func(job []proven, ps []*guest.RecvPayload) {
			txs := g.builder.RecvPacketTxs(ps...)
			cost := g.feeOf(txs)
			g.lanes[s.index].pc.enqueue(txs, func(_, _ time.Time, err error) {
				if err != nil {
					for _, w := range job {
						g.r.recvFailed(g.side, s, w.work)
					}
					return
				}
				// The histograms observe each packet's share of its job, so
				// they keep reading "host txs (cents) per received packet".
				n := float64(len(job))
				for _, w := range job {
					g.mRecvTxs.Observe(float64(len(txs)) / n)
					g.mRecvCost.Observe(fees.Cents(cost) / n)
					g.r.delivered(g.side, s, w.packet, nil, 0, false)
				}
			})
		})
}

func (g *guestEnd) ackPackets(s *shard, batch []provenAck) {
	payloads := make([]*guest.AckPayload, len(batch))
	for i, w := range batch {
		payloads[i] = &guest.AckPayload{Packet: w.packet, Ack: w.ack, ProofHeight: ibc.Height(w.provedAt), Proof: w.proof}
	}
	jobs(batch, payloads, func(ps []*guest.AckPayload) int { return g.builder.AckBatchLen(ps, g.st) },
		func(job []provenAck, ps []*guest.AckPayload) {
			g.lanes[s.index].pc.enqueue(g.builder.AckPacketTxs(ps...), func(_, _ time.Time, err error) {
				for _, w := range job {
					if err != nil {
						g.r.requeueAck(g.side, s, w.ackWork)
					}
					g.r.acked(g.side, s, w.packet, err)
				}
			})
		})
}

func (g *guestEnd) timeoutPackets(s *shard, batch []provenTimeout) {
	payloads := make([]*guest.TimeoutPayload, len(batch))
	for i, w := range batch {
		payloads[i] = &guest.TimeoutPayload{Packet: w.tr.packet, ProofHeight: w.provedAt, Proof: w.proof}
	}
	jobs(batch, payloads, func(ps []*guest.TimeoutPayload) int { return g.builder.TimeoutBatchLen(ps, g.st) },
		func(job []provenTimeout, ps []*guest.TimeoutPayload) {
			g.lanes[s.index].pc.enqueue(g.builder.TimeoutPacketTxs(ps...), func(_, _ time.Time, err error) {
				for _, w := range job {
					g.r.timedOut(w.tr, err)
				}
			})
		})
}

// jobs cuts items, and the payloads staging them, into the longest runs fit
// allows and hands each run to submit.
func jobs[W, P any](items []W, payloads []P, fit func([]P) int, submit func([]W, []P)) {
	for len(items) > 0 {
		n := fit(payloads)
		submit(items[:n], payloads[:n])
		items, payloads = items[n:], payloads[n:]
	}
}

// feeOf is what the host charges for txs.
func (g *guestEnd) feeOf(txs []*host.Transaction) host.Lamports {
	var cost host.Lamports
	profile := g.host.Profile()
	for _, tx := range txs {
		cost += tx.Fee(profile)
	}
	return cost
}
