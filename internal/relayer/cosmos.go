package relayer

import (
	"time"

	"repro/internal/counterparty"
	"repro/internal/ibc"
	"repro/internal/netsim"
)

// cosmosEnd is a Cosmos-style chain: its state is read directly (the RPC
// analogue) and everything submitted to it goes through its netsim
// front-end, one operation at a time.
type cosmosEnd struct {
	r        *Relayer
	side     int
	chain    *counterparty.Chain
	node     netsim.NodeID
	clientID ibc.ClientID // the chain's client of the peer

	cursor int // EventsSince cursor

	// ops serialises submissions: reliable retries must not let a
	// RecvPacket overtake the UpdateClient it depends on.
	ops  []cosmosOp
	busy bool
}

// cosmosOp is one queued front-end call.
type cosmosOp struct {
	kind    string
	payload any
	done    func(resp any, err error)
}

func (c *cosmosEnd) scan() {
	events, cursor := c.chain.EventsSince(c.cursor)
	c.cursor = cursor
	for _, ev := range events {
		if pc, ok := ev.Payload.(counterparty.EventPacketsCommitted); ok {
			for _, p := range pc.Packets {
				c.r.queuePacket(c.side, p, ev.Height)
			}
		}
	}
}

func (c *cosmosEnd) head() (uint64, time.Time, error) {
	h := c.chain.Height()
	hdr, err := c.chain.HeaderAt(h)
	if err != nil {
		return 0, time.Time{}, err
	}
	return h, hdr.Time, nil
}

func (c *cosmosEnd) sendUpdate(height uint64, done func(error)) error {
	upd, err := c.chain.UpdateAt(height)
	if err != nil {
		return err
	}
	c.r.ends[1-c.side].updateClient(upd, done)
	return nil
}

func (c *cosmosEnd) proveMembership(height uint64, path string) ([]byte, uint64, error) {
	_, proof, err := c.chain.ProveMembershipAt(height, path)
	return proof, height, err
}

func (c *cosmosEnd) proveNonMembership(height uint64, path string) ([]byte, error) {
	return c.chain.ProveNonMembershipAt(height, path)
}

func (c *cosmosEnd) hasCommitment(p *ibc.Packet) bool { return c.chain.Handler().HasCommitment(p) }

func (c *cosmosEnd) client() (ibc.Client, error) { return c.chain.Handler().Client(c.clientID) }

func (c *cosmosEnd) sinkNames() (string, string) { return "delivered_to_cp", "acks_to_cp" }

func (c *cosmosEnd) backlog() int { return len(c.ops) }

// call appends one operation to the FIFO and starts the pump if idle.
// Without an OpLatency, on a lossless network, the whole queue drains
// synchronously before this returns.
func (c *cosmosEnd) call(kind string, payload any, done func(resp any, err error)) {
	c.ops = append(c.ops, cosmosOp{kind, payload, done})
	if !c.busy {
		c.busy = true
		c.pump()
	}
}

// pump issues the head operation — after a sampled submission latency
// where the link configures one, so the queue drains at deployment pace.
func (c *cosmosEnd) pump() {
	if len(c.ops) == 0 {
		c.busy = false
		return
	}
	if lat := c.r.cfg.OpLatency; lat != nil {
		c.r.sched.After(lat.Sample(c.r.rng), c.issue)
		return
	}
	c.issue()
}

// issue calls the front-end with the head operation and advances on its
// completion.
func (c *cosmosEnd) issue() {
	op := c.ops[0]
	c.r.call(c.node, op.kind, op.payload, func(resp any, err error) {
		c.ops[0] = cosmosOp{}
		c.ops = c.ops[1:]
		op.done(resp, err)
		c.pump()
	})
}

func (c *cosmosEnd) updateClient(h header, done func(error)) {
	c.call(netsim.KindUpdateClient, netsim.MsgUpdateClient{ClientID: c.clientID, Header: h.Marshal()},
		func(_ any, err error) { done(err) })
}

// recvPackets delivers the batch one front-end call per packet, in order.
// The front-end answers with the written ack and the first height whose
// root commits it, and flags a replay — a competing relayer got there
// first — as Duplicate. An application rejection (say, an expired packet)
// is left to the timeout scan.
func (c *cosmosEnd) recvPackets(s *shard, batch []proven) {
	for _, w := range batch {
		c.call(netsim.KindRecvPacket,
			netsim.MsgRecvPacket{Packet: w.packet, Proof: w.proof, ProofHeight: ibc.Height(w.provedAt)},
			func(resp any, err error) {
				rr, ok := resp.(netsim.RespRecvPacket)
				if err != nil || !ok {
					return
				}
				if !rr.Duplicate && !w.seen.IsZero() {
					lat := c.r.sched.Now().Sub(w.seen).Seconds()
					c.r.mHopLatency.Observe(lat)
					c.r.observeLatency(lat)
				}
				c.r.delivered(c.side, s, w.packet, rr.Ack, rr.ProvableAt, rr.Duplicate)
			})
	}
}

func (c *cosmosEnd) ackPacket(s *shard, w ackWork, proof []byte, provedAt uint64) {
	c.call(netsim.KindAckPacket,
		netsim.MsgAckPacket{Packet: w.packet, Ack: w.ack, Proof: proof, ProofHeight: ibc.Height(provedAt)},
		func(_ any, err error) { c.r.acked(c.side, s, w.packet, err) })
}

func (c *cosmosEnd) timeoutPacket(_ *shard, tr *PacketTrace, proof []byte, provedAt ibc.Height) {
	c.call(netsim.KindTimeoutPacket,
		netsim.MsgTimeoutPacket{Packet: tr.Packet, Proof: proof, ProofHeight: provedAt},
		func(_ any, err error) { c.r.timedOut(tr, err) })
}
