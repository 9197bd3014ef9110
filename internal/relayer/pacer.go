package relayer

import (
	"math/rand"
	"time"

	"repro/internal/host"
	"repro/internal/netsim"
)

// job is a paced sequence of host transactions — a guest.TxBuilder chunked
// upload — with a completion callback.
type job struct {
	txs []*host.Transaction
	// tail, when set, builds the transactions that follow txs; the pump
	// calls it once they are submitted, after the gap that follows them.
	tail func() ([]*host.Transaction, error)
	// commit is the job's last transaction, which names its staging buffer.
	commit *host.Transaction
	// slot, on a client update's job, is the host slot its commit shares
	// with the recv jobs the update unlocks; on one of those, the slot its
	// commit waits for.
	slot *landing
	// started is when the first transaction was submitted (the paper's
	// Fig. 4 measures first-tx to last-tx execution).
	started time.Time
	onDone  func(started, finished time.Time, err error)
}

// landing is the host slot of a client update toward the guest: the
// update's commit goes out in one ordered submission with the commits of
// the recv jobs proven at its height whose chunks are staged by then, so
// the guest changes state once for the update and the packets it unlocks.
// A recv job still staging when the update's commit goes commits on its own
// lane; one whose update was given up is given up too.
type landing struct {
	update *job
	// ready are the recv jobs whose commits wait for the update's.
	ready []*job
	// gone marks the update's commit submitted, or given up with err.
	gone bool
	err  error
}

// pacer is one paced host-transaction submitter: a FIFO of jobs drained
// one transaction at a time with a TxGap-distributed gap between
// submissions, exactly like a real RPC submitter with confirmation
// pacing. Each guest-end lane owns a pacer, so channels submit
// concurrently on the sim scheduler without perturbing each other's
// pacing streams; lane 0 shares the root pacer (and the relayer's root
// RNG) with client updates, which keeps the single-channel topology
// byte-identical to the pre-shard relayer.
type pacer struct {
	g   *guestEnd
	rng *rand.Rand

	// queue is the FIFO of host tx jobs; busy marks the pump running.
	queue []*job
	busy  bool
	// closes drop the staging buffers of jobs given up, still to submit.
	closes []*host.Transaction
}

// push schedules a paced submission of j, whose tail, if any, is built when
// the pump reaches it. j's onDone fires one slot after the last submission
// (when the commit landed) with the first and last transaction landing
// times — or as soon as a submission or the tail fails, with the error.
func (p *pacer) push(j *job) {
	p.queue = append(p.queue, j)
	p.g.queueDelta(+1)
	if !p.busy {
		p.busy = true
		p.g.r.sched.After(0, p.pump)
	}
}

// pump submits the next transaction of the current job. A client update's
// commit takes the commits of its landing's ready recv jobs along; a recv
// job that reaches its commit before its update's goes parks in the landing.
func (p *pacer) pump() {
	if len(p.queue) == 0 {
		p.busy = false
		return
	}
	g, sched := p.g, p.g.r.sched
	j := p.queue[0]
	if len(j.txs) == 0 && j.tail != nil {
		txs, err := j.tail()
		j.tail = nil
		if err != nil {
			p.giveUp(j, err)
			return
		}
		j.txs = txs
	}
	if len(j.txs) == 0 {
		// Job finished submitting; fire completion after landing.
		p.pop()
		slot := g.host.Profile().SlotDuration
		sched.After(slot+slot/2, func() { p.land(j) })
		sched.After(0, p.pump)
		return
	}
	txs := j.txs[:1:1]
	if l := j.slot; l != nil && len(j.txs) == 1 && j.tail == nil {
		switch {
		case l.update == j:
			l.gone = true
			for _, rj := range l.ready {
				txs = append(txs, rj.commit)
			}
		case l.err != nil:
			p.giveUp(j, l.err)
			return
		case !l.gone:
			p.pop()
			l.ready = append(l.ready, j)
			sched.After(0, p.pump)
			return
		}
	}
	if j.started.IsZero() {
		// First transaction lands at the next slot boundary.
		j.started = sched.Now().Add(g.host.Profile().SlotDuration / 2)
	}
	j.txs = j.txs[1:]
	// The host's replay protection makes the reliable call's retries
	// idempotent.
	g.r.call(g.node, netsim.KindSubmitTx, netsim.MsgSubmitTx{Txs: txs}, func(_ any, err error) {
		if err != nil {
			// The host refused the submission: a full mempool, or a
			// transaction that fails validation (a relayer bug). Drop the
			// job rather than wedge the queue, and tell its owner.
			p.giveUp(j, err)
			return
		}
		// Only a transaction the host accepted is charged.
		for _, tx := range txs {
			g.r.TotalFees += tx.Fee(g.host.Profile())
		}
		if len(p.closes) > 0 {
			p.closeBuffers()
		}
		sched.After(g.r.cfg.TxGap.Sample(p.rng), p.pump)
	})
}

// pop takes the current job off the queue.
func (p *pacer) pop() {
	p.queue = p.queue[1:]
	p.g.queueDelta(-1)
}

// land fires the completion of j, submitted in full, once its commit
// landed: first those of the recv jobs whose commits went with it, so
// packets they hand back are queued when the update's owner flushes.
func (p *pacer) land(j *job) {
	finished := p.g.r.sched.Now()
	done := func(j *job) {
		if !j.started.IsZero() {
			lat := finished.Sub(j.started).Seconds()
			p.g.mJobLatency.Observe(lat)
			p.g.r.observeLatency(lat)
		}
		j.onDone(j.started, finished, nil)
	}
	if l := j.slot; l != nil && l.update == j {
		for _, rj := range l.ready {
			done(rj)
		}
	}
	done(j)
}

// giveUp drops the current job, j, and tells its owner. The staging buffer
// its chunks may have filled will never be committed: it is closed once a
// transaction gets through again, since a host that refused one (a full
// mempool) would refuse the close too. A client update given up takes the
// recv jobs whose commits wait for it along.
func (p *pacer) giveUp(j *job, err error) {
	now := p.g.r.sched.Now()
	p.pop()
	drop := func(j *job) {
		p.closes = append(p.closes, p.g.builder.CloseBufferTx(j.commit))
		j.onDone(j.started, now, err)
	}
	if l := j.slot; l != nil && l.update == j {
		l.gone, l.err = true, err
		for _, rj := range l.ready {
			drop(rj)
		}
	}
	drop(j)
	p.g.r.sched.After(0, p.pump)
}

// closeBuffers submits the pending closes, now that a transaction got
// through; one that fails again waits for the next.
func (p *pacer) closeBuffers() {
	g, closes := p.g, p.closes
	p.closes = nil
	for _, tx := range closes {
		g.r.call(g.node, netsim.KindSubmitTx, netsim.MsgSubmitTx{Txs: []*host.Transaction{tx}}, func(_ any, err error) {
			if err != nil {
				p.closes = append(p.closes, tx)
				return
			}
			g.r.TotalFees += tx.Fee(g.host.Profile())
		})
	}
}

// queueDelta tracks the aggregate job-queue depth across all pacers and
// mirrors it into the queue_depth gauge.
func (g *guestEnd) queueDelta(d int64) {
	g.queuedJobs += d
	g.mQueueDepth.Set(g.queuedJobs)
}
