package relayer

import (
	"time"

	"repro/internal/counterparty"
	"repro/internal/ibc"
	"repro/internal/lightclient/tendermint"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// maxTxMsgs caps the messages of one transaction (Hermes' default
// max_msg_num); what is queued beyond it forms the next transaction.
const maxTxMsgs = 30

// cosmosEnd is a Cosmos-style chain: its state is read directly (the RPC
// analogue) and everything submitted to it goes through its netsim
// front-end as transactions, one at a time, each carrying every message
// queued when it leaves.
type cosmosEnd struct {
	r        *Relayer
	side     int
	chain    *counterparty.Chain
	node     netsim.NodeID
	clientID ibc.ClientID // the chain's client of the peer
	// opLatency, on a cosmos↔cosmos link, is drawn before every transaction
	// (Config.CPLatency); nil on a guest link.
	opLatency sim.Dist

	cursor int // EventsSince cursor

	// msgs is the submission FIFO: transactions are cut from its head and
	// never overlap, so reliable retries cannot let a RecvPacket overtake
	// the UpdateClient it depends on.
	msgs []cosmosMsg
	busy bool
}

// cosmosMsg is one queued datagram and what to do with its outcome.
type cosmosMsg struct {
	msg  any
	done func(resp any, err error)
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

// sendUpdate hands the peer an update planned at height, bound when the
// peer asks: its commit is signed only then, at the height bindHeight picks.
func (c *cosmosEnd) sendUpdate(height uint64, done func(uint64, error)) error {
	planned, err := c.chain.HeaderAt(height)
	if err != nil {
		return err
	}
	set, err := c.chain.ValidatorSetAt(height)
	if err != nil {
		return err
	}
	c.r.ends[1-c.side].updateClient(update{set: set, bind: func() (header, uint64, error) {
		at := c.bindHeight(planned)
		upd, err := c.chain.UpdateAt(at)
		return upd, at, err
	}}, done)
	return nil
}

// bindHeight picks the height an update planned at planned.Height binds
// to: the chain's head when packets for this link were committed above the
// planned height and the head's validator set is the planned one — which a
// guest sink staged ahead — and the planned height otherwise. The IBC
// relayer rule is "update to the newest height, then submit what it
// proves"; binding late lets the update prove the packets committed while
// it waited. A cosmos sink binds at once, when the head is the planned
// height.
func (c *cosmosEnd) bindHeight(planned *tendermint.Header) uint64 {
	head := c.chain.Height()
	if head <= planned.Height || !c.r.packetsAbove(c.side, planned.Height) {
		return planned.Height
	}
	if h, err := c.chain.HeaderAt(head); err != nil || h.ValSetHash != planned.ValSetHash {
		return planned.Height
	}
	return head
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

func (c *cosmosEnd) packetDelivered(p *ibc.Packet) bool { return c.chain.Handler().PacketDelivered(p) }

func (c *cosmosEnd) sinkNames() (string, string) { return "delivered_to_cp", "acks_to_cp" }

func (c *cosmosEnd) backlog() int { return len(c.msgs) }

// submit appends one message to the FIFO and starts the pump if idle.
// On a guest link over a lossless network the whole queue drains
// synchronously before this returns.
func (c *cosmosEnd) submit(msg any, done func(resp any, err error)) {
	c.msgs = append(c.msgs, cosmosMsg{msg, done})
	if !c.busy {
		c.busy = true
		c.pump()
	}
}

// pump issues the next transaction — on a cosmos↔cosmos link after a
// sampled submission latency, so the queue drains at deployment pace and
// whatever is handed over meanwhile rides along.
func (c *cosmosEnd) pump() {
	if len(c.msgs) == 0 {
		c.msgs, c.busy = nil, false
		return
	}
	if lat := c.opLatency; lat != nil {
		c.r.sched.After(lat.Sample(c.r.rng), c.issue)
		return
	}
	c.issue()
}

// issue cuts a transaction from the head of the FIFO, calls the front-end
// with it and hands every message its own outcome. A call that failed as a
// whole fails each of its messages.
func (c *cosmosEnd) issue() {
	n := min(len(c.msgs), maxTxMsgs)
	tx := netsim.MsgTx{Msgs: make([]any, n)}
	for i, m := range c.msgs[:n] {
		tx.Msgs[i] = m.msg
	}
	c.r.call(c.node, netsim.KindTx, tx, func(resp any, err error) {
		results, _ := resp.([]netsim.TxResult)
		// What the outcomes queue lands behind sent, never in it.
		sent := c.msgs[:n]
		c.msgs = c.msgs[n:]
		for i, m := range sent {
			if err != nil {
				m.done(nil, err)
			} else {
				m.done(results[i].Resp, results[i].Err)
			}
		}
		clear(sent)
		c.pump()
	})
}

func (c *cosmosEnd) inOrder() bool { return true }

func (c *cosmosEnd) updateClient(u update, done func(uint64, error)) {
	h, height, err := u.bind()
	if err != nil {
		done(0, err)
		return
	}
	c.submit(netsim.MsgUpdateClient{ClientID: c.clientID, Header: h.Marshal()},
		func(_ any, err error) { done(height, err) })
}

// recvPackets delivers the batch one message per packet, in order. The
// front-end answers each with the written ack and the first height whose
// root commits it, and flags a replay — a competing relayer got there
// first — as Duplicate.
func (c *cosmosEnd) recvPackets(s *shard, batch []proven) {
	for _, w := range batch {
		c.submit(netsim.MsgRecvPacket{Packet: w.packet, Proof: w.proof, ProofHeight: ibc.Height(w.provedAt)},
			func(resp any, err error) {
				rr, ok := resp.(netsim.RespRecvPacket)
				if err != nil || !ok {
					c.r.recvFailed(c.side, s, w.work)
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

// ackPackets submits the batch one message per ack, in order; each
// message's own result settles it.
func (c *cosmosEnd) ackPackets(s *shard, batch []provenAck) {
	for _, w := range batch {
		c.submit(netsim.MsgAckPacket{Packet: w.packet, Ack: w.ack, Proof: w.proof, ProofHeight: ibc.Height(w.provedAt)},
			func(_ any, err error) {
				if err != nil {
					c.r.requeueAck(c.side, s, w.ackWork)
					return
				}
				c.r.acked(c.side, s, w.packet)
			})
	}
}

// timeoutPackets submits the batch one message per packet, in order; each
// message's own result settles it.
func (c *cosmosEnd) timeoutPackets(_ *shard, batch []provenTimeout) {
	for _, w := range batch {
		c.submit(netsim.MsgTimeoutPacket{Packet: w.tr.packet, Proof: w.proof, ProofHeight: w.provedAt},
			func(_ any, err error) { c.r.timedOut(w.tr, err == nil) })
	}
}
