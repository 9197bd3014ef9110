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
// As a source, Alg. 2's header pump decides which guest headers its peer
// learns: every finalised block that carries this relayer's packets,
// commits acks the guest wrote, or rotates the epoch, in height order. When
// a header lands, the block's packets and acks go on their shards at its
// height and the engine flushes them, so batching and the failure rules
// cover them as they cover a cosmos source's work; a header the peer
// refuses leaves them there for the engine's update rule.
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

	blocks *host.Reader  // the host blocks not yet scanned
	pulled []*host.Block // Pull's buffer, empty between scans

	// lanes[i] is shard i's paced submitter; root is lane 0's.
	// queuedJobs aggregates job-queue depth across all pacers.
	lanes      []*pacer
	root       *pacer
	queuedJobs int64

	// acks are acks the guest wrote for peer-sent packets, awaiting the
	// header of the finalised block that commits them; their height is that
	// block's, zero until one does.
	acks []ackWork

	// headers serialises header pushes in finalisation (= height) order.
	// With pipelined guest blocks a quorum cascade finalises several
	// entries at once; racing their updates over independently sampled
	// latencies would let a later height land first, making the earlier
	// ones stale at the peer's client, whose work would then wait for
	// another update.
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

func newGuestEnd(r *Relayer, side int, ec EndConfig, reg *telemetry.Registry) (*guestEnd, error) {
	st, err := ec.Contract.State(ec.Host)
	if err != nil {
		return nil, err
	}
	g := &guestEnd{
		r: r, side: side, host: ec.Host, st: st, node: ec.Node, clientID: ec.ClientOfPeer,
		builder: guest.NewTxBuilder(ec.Contract, r.key.Public()),
		// The reader starts at the current slot: bootstrap blocks predate
		// the relayer and were already handled.
		blocks: ec.Host.NewReader(),
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
	// identity); every later lane derives its own deterministic stream
	// from the scenario seed and the channel ID.
	g.root = &pacer{g: g, rng: r.rng}
	for i, ch := range r.cfg.Channels {
		pc := g.root
		if i > 0 {
			seed := sim.DeriveSeed(r.cfg.Seed, "relayer/ch/"+string(ch.ChannelB))
			pc = &pacer{g: g, rng: rand.New(rand.NewSource(sim.DeriveSeed(seed, "pacing")))}
		}
		g.lanes = append(g.lanes, pc)
	}
	return g, nil
}

func (g *guestEnd) peer() end { return g.r.ends[1-g.side] }

func (g *guestEnd) sinkNames() (string, string) { return "recv_submitted", "acks_to_guest" }

func (g *guestEnd) backlog() int { return int(g.queuedJobs) + len(g.headers) + len(g.acks) }

// --- source ---

// scan processes the host blocks since the last scan.
func (g *guestEnd) scan() {
	r := g.r
	g.pulled = g.blocks.Pull(g.pulled[:0])
	for _, b := range g.pulled {
		for _, ev := range b.Events {
			switch e := ev.Payload.(type) {
			case guest.EventFinalisedBlock:
				g.onFinalised(e.Entry)
			case guest.EventPacketDelivered:
				// A peer-sent packet was delivered on the guest; its ack
				// rides the header of the finalised block that commits it.
				p := e.Packet
				if r.route(g.side, p.DestPort, p.DestChannel) != nil {
					g.acks = append(g.acks, ackWork{packet: p, ack: e.Ack})
				}
			case ibc.EventSendPacket:
				p := e.Packet
				if r.route(g.side, p.SourcePort, p.SourceChannel) == nil {
					continue
				}
				r.track(g.side, p)
				// Send and commit coincide on the guest: the commitment is
				// written in the same host transaction as SendPacket.
				r.mark(g.side, p, telemetry.StageSend, ev.Time)
				r.mark(g.side, p, telemetry.StageCommit, ev.Time)
			}
		}
	}
	clear(g.pulled) // pin no block the host has trimmed
}

// onFinalised handles a finalised guest block: queue its header for the
// peer's light client if it carries packets, commits pending acks or
// rotates the epoch (Alg. 2). One header covers every channel's work in the
// block.
func (g *guestEnd) onFinalised(entry *guest.BlockEntry) {
	r := g.r
	owned := 0
	for _, p := range entry.Packets {
		if r.route(g.side, p.SourcePort, p.SourceChannel) == nil {
			continue
		}
		owned++
		r.mark(g.side, p, telemetry.StageFinalise, entry.FinalisedAt)
		r.mark(g.side, p, telemetry.StagePickup, r.sched.Now())
	}
	// Epoch rotations gate every client of the guest chain: push the
	// header even when the block carries no work this relayer serves.
	if !g.commitAcks(entry.Block.Height) && owned == 0 && entry.Block.NextEpoch == nil {
		return
	}
	g.headers = append(g.headers, entry)
	g.pumpHeaders()
}

// commitAcks gives the pending acks the block at height commits that
// block's height, and reports whether there were any.
func (g *guestEnd) commitAcks(height uint64) bool {
	if len(g.acks) == 0 {
		return false
	}
	snap, err := g.st.SnapshotAt(height)
	if err != nil {
		return false
	}
	committed := false
	for i := range g.acks {
		w := &g.acks[i]
		if w.height != 0 {
			continue
		}
		// An ack the snapshot cannot read stays pending: the acks persist,
		// so a later finalised block commits it too.
		if ok, _ := snap.Has(ibc.AckPath(w.packet.DestPort, w.packet.DestChannel, w.packet.Sequence)); ok {
			w.height, committed = height, true
		}
	}
	return committed
}

// pumpHeaders dispatches at most one header update at a time, in queue
// order. Busy covers only the UpdateClient round-trip; the flush a landing
// runs does not hold up the next header.
func (g *guestEnd) pumpHeaders() {
	for !g.headerBusy && len(g.headers) > 0 {
		entry := g.headers[0]
		g.headers = g.headers[1:]
		height := entry.Block.Height
		if height <= g.pushed {
			// A prune fall-forward or an engine update already advanced the
			// client past this height, so the header would be stale and its
			// consensus state will never install. Skip the round-trip and
			// prove the block's work against the advanced height instead.
			g.landed(entry, nil)
			continue
		}
		sb := entry.SignedBlock()
		g.headerBusy = true
		g.r.sched.After(g.r.cfg.CPLatency.Sample(g.r.rng), func() {
			g.pushHeader(height, sb, func(err error) {
				g.headerBusy = false
				g.landed(entry, err)
				g.pumpHeaders()
			})
		})
	}
}

// landed puts entry's work — its packets and the acks it commits — on
// their shards at its height once its header push ended, and flushes it at
// the newest height the peer's client is known to hold: at least the
// entry's own, higher when a fall-forward advanced the client. Commitments
// persist in guest state until acked, so a later root still commits them.
// A push the peer refused (err) leaves the work queued for maybeUpdate.
func (g *guestEnd) landed(entry *guest.BlockEntry, err error) {
	r, height := g.r, entry.Block.Height
	for _, p := range entry.Packets {
		if s := r.route(g.side, p.SourcePort, p.SourceChannel); s != nil {
			s.packets[g.side] = append(s.packets[g.side], work{packet: p, height: height})
		}
	}
	pending := g.acks[:0]
	for _, w := range g.acks {
		if w.height == 0 || w.height > height {
			pending = append(pending, w)
			continue
		}
		s := r.route(g.side, w.packet.DestPort, w.packet.DestChannel)
		s.acks[g.side] = append(s.acks[g.side], w)
	}
	clear(g.acks[len(pending):])
	g.acks = pending
	if err == nil {
		r.flush(g.side, g.pushed)
	}
}

// pushHeader sends a guest header to the peer's client and records the
// height on success, so deliveries never prove below what the client is
// known to hold. Every header push must go through here: out-of-band
// pushes (the engine's updates, prune fall-forward) can advance the client
// past heights still queued in the header pump, and those heights'
// consensus states then never install.
func (g *guestEnd) pushHeader(height uint64, h header, done func(error)) {
	bind := func() (header, uint64, error) { return h, height, nil }
	g.peer().updateClient(update{bind: bind}, func(_ uint64, err error) {
		if err == nil && height > g.pushed {
			g.pushed = height
		}
		done(err)
	})
}

func (g *guestEnd) head() (uint64, time.Time, error) {
	e := g.st.LatestFinalised()
	if e == nil {
		return 0, time.Time{}, errors.New("relayer: no finalised guest block")
	}
	return e.Block.Height, e.Block.Time, nil
}

func (g *guestEnd) sendUpdate(height uint64, done func(uint64, error)) error {
	entry, err := g.st.Entry(height)
	if err != nil {
		return err
	}
	g.pushHeader(height, entry.SignedBlock(), func(err error) { done(height, err) })
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

// updateClient stages a peer update across chunk transactions whose
// precompile entries verify the commit signatures (§IV), on the root pacer,
// in two parts. The whole claim-free chunks of the validator set, which
// the encoding starts with and which does not depend on the height, go
// first; the pacer builds the rest — set remainder, header, commit and the
// claims — when it reaches it, binding the update then, so the header is
// the newest one its packets allow and its commit is signed once. Binding
// also proves each shard's first recv job at that height for the update's
// landing slot (groupRecvs). done reports the height bound.
func (g *guestEnd) updateClient(u update, done func(uint64, error)) {
	up := g.builder.BeginUpdateClient(g.clientID, u.set.Marshal())
	var height uint64
	var txs []*host.Transaction // the tail, once built
	var sigs []guest.SigBatch
	j := &job{txs: up.Prefix, commit: up.Commit, slot: &landing{}}
	j.slot.update = j
	j.tail = func() ([]*host.Transaction, error) {
		h, at, err := u.bind()
		if err != nil {
			return nil, err
		}
		upd := h.(*tendermint.Update)
		headerHash := upd.Header.Hash()
		sigs = make([]guest.SigBatch, 0, len(upd.Commit))
		for _, cs := range upd.Commit {
			payload := tendermint.VotePayload(headerHash, cs.Timestamp)
			sigs = append(sigs, guest.SigBatch{Pub: cs.PubKey, Payload: payload[:], Sig: cs.Signature})
		}
		height = at
		txs = up.Tail(upd.Marshal(), sigs)
		return g.groupRecvs(j.slot, at, txs), nil
	}
	j.onDone = func(started, finished time.Time, err error) {
		if err == nil {
			// Fig. 4's latency is first-tx landing to last-tx landing. The
			// update's own transactions are counted, not the recv chunks
			// riding ahead of its commit.
			g.mUpdLatency.Observe(finished.Sub(started).Seconds())
			g.mUpdTxs.Observe(float64(len(up.Prefix) + len(txs)))
			g.mUpdCost.Observe(fees.Cents(g.feeOf(up.Prefix) + g.feeOf(txs)))
			g.mUpdSigs.Observe(float64(len(sigs)))
		}
		done(height, err)
	}
	g.root.push(j)
}

// groupRecvs gives the update whose tail is tail, bound at height, its
// landing slot l: each shard's first recv job — the packets the engine
// would flush at height, cut by the batch rule — is proven at height now,
// so the update and the packets it unlocks commit together, as a cosmos end
// sends a header and the datagrams it proves in one transaction. Lane 0's
// chunks ride the root pacer between the update's tail and its commit, in
// the transactions groupRecvs returns; the other lanes stage theirs on
// their own pacers meanwhile. The rest of each shard's packets flush when
// the update lands.
func (g *guestEnd) groupRecvs(l *landing, height uint64, tail []*host.Transaction) []*host.Transaction {
	var chunks []*host.Transaction // lane 0's
	for _, s := range g.r.shards {
		var ps []*guest.RecvPayload
		batch := g.r.takeProvable(1-g.side, s, height, func(w proven) bool {
			ps = append(ps, &guest.RecvPayload{Packet: w.packet, ProofHeight: ibc.Height(w.provedAt), Proof: w.proof})
			if g.builder.RecvBatchLen(ps, g.st) == len(ps) {
				return true
			}
			ps = ps[:len(ps)-1]
			return false
		})
		if len(batch) == 0 {
			continue
		}
		rj := g.deliverJob(s, batch, ps)
		rj.slot = l
		if pc := g.lanes[s.index]; pc != g.root {
			pc.push(rj)
			continue
		}
		chunks = append(chunks, rj.txs[:len(rj.txs)-1]...)
		rj.txs = nil
		l.ready = append(l.ready, rj)
	}
	if len(chunks) == 0 {
		return tail
	}
	n := len(tail) - 1
	return append(append(tail[:n:n], chunks...), tail[n])
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
// part they share once. Every job settles as settledJob does.
func (g *guestEnd) recvPackets(s *shard, batch []proven) {
	payloads := make([]*guest.RecvPayload, len(batch))
	for i, w := range batch {
		payloads[i] = &guest.RecvPayload{Packet: w.packet, ProofHeight: ibc.Height(w.provedAt), Proof: w.proof}
	}
	jobs(batch, payloads, func(ps []*guest.RecvPayload) int { return g.builder.RecvBatchLen(ps, g.st) },
		func(job []proven, ps []*guest.RecvPayload) { g.lanes[s.index].push(g.deliverJob(s, job, ps)) })
}

// deliverJob is the job that stages ps, the payloads of batch, and commits
// them: the only recv job, whether a flush or a client update's binding
// (groupRecvs) built it. A packet the guest shows delivered is delivered;
// any other goes to recvFailed.
func (g *guestEnd) deliverJob(s *shard, batch []proven, ps []*guest.RecvPayload) *job {
	txs := g.builder.RecvPacketTxs(ps...)
	n, cost := float64(len(batch)), g.feeOf(txs)
	return settledJob(g, s, txs, batch, func(w proven) bool {
		if !g.packetDelivered(w.packet) {
			g.r.recvFailed(g.side, s, w.work)
			return false
		}
		// The histograms observe each packet's share of its job, so they
		// keep reading "host txs (cents) per received packet".
		g.mRecvTxs.Observe(float64(len(txs)) / n)
		g.mRecvCost.Observe(fees.Cents(cost) / n)
		g.r.delivered(g.side, s, w.packet, nil, 0, false)
		return true
	})
}

// ackPackets settles an ack as acked once the guest no longer commits its
// packet, and hands it to requeueAck otherwise.
func (g *guestEnd) ackPackets(s *shard, batch []provenAck) {
	payloads := make([]*guest.AckPayload, len(batch))
	for i, w := range batch {
		payloads[i] = &guest.AckPayload{Packet: w.packet, Ack: w.ack, ProofHeight: ibc.Height(w.provedAt), Proof: w.proof}
	}
	jobs(batch, payloads, func(ps []*guest.AckPayload) int { return g.builder.AckBatchLen(ps, g.st) },
		func(job []provenAck, ps []*guest.AckPayload) {
			g.lanes[s.index].push(settledJob(g, s, g.builder.AckPacketTxs(ps...), job, func(w provenAck) bool {
				if g.hasCommitment(w.packet) {
					g.r.requeueAck(g.side, s, w.ackWork)
					return false
				}
				g.r.acked(g.side, s, w.packet)
				return true
			}))
		})
}

// timeoutPackets settles a timeout as landed once the guest no longer
// commits its packet; one that did not land is left for the next scan.
func (g *guestEnd) timeoutPackets(s *shard, batch []provenTimeout) {
	payloads := make([]*guest.TimeoutPayload, len(batch))
	for i, w := range batch {
		payloads[i] = &guest.TimeoutPayload{Packet: w.tr.packet, ProofHeight: w.provedAt, Proof: w.proof}
	}
	jobs(batch, payloads, func(ps []*guest.TimeoutPayload) int { return g.builder.TimeoutBatchLen(ps, g.st) },
		func(job []provenTimeout, ps []*guest.TimeoutPayload) {
			g.lanes[s.index].push(settledJob(g, s, g.builder.TimeoutPacketTxs(ps...), job, func(w provenTimeout) bool {
				landed := !g.hasCommitment(w.tr.packet)
				g.r.timedOut(w.tr, landed)
				return landed
			}))
		})
}

// settledJob is the job that stages and commits txs on shard s's lane for
// items. The relayer sees its transactions accepted, never whether the
// contract applied them, so its completion — once the commit landed, or
// when the job is given up — settles every item by the guest's state, with
// landed telling whether the guest shows it applied. A job that landed
// applying none of its items has its staging buffer closed; a given-up
// job's pacer closes it itself.
func settledJob[W any](g *guestEnd, s *shard, txs []*host.Transaction, items []W, landed func(W) bool) *job {
	commit := txs[len(txs)-1]
	return &job{txs: txs, commit: commit, onDone: func(_, _ time.Time, err error) {
		applied := false
		for _, w := range items {
			if landed(w) {
				applied = true
			}
		}
		if !applied && err == nil {
			pc := g.lanes[s.index]
			pc.closes = append(pc.closes, g.builder.CloseBufferTx(commit))
			pc.closeBuffers()
		}
	}}
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
