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
	// started is when the first transaction was submitted (the paper's
	// Fig. 4 measures first-tx to last-tx execution).
	started time.Time
	onDone  func(started, finished time.Time, err error)
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

// enqueue schedules a paced submission of txs; onDone fires one slot after
// the last submission (when the commit landed) with the first and last
// transaction landing times — or as soon as a submission fails, with the
// error.
func (p *pacer) enqueue(txs []*host.Transaction, onDone func(started, finished time.Time, err error)) {
	p.stage(txs, nil, txs[len(txs)-1], onDone)
}

// stage schedules a job whose first transactions, prefix, are built and
// whose tail, if any, is built when the pump reaches it; commit is the
// transaction the job ends with. onDone fires as enqueue's does, or with
// tail's error.
func (p *pacer) stage(prefix []*host.Transaction, tail func() ([]*host.Transaction, error), commit *host.Transaction, onDone func(started, finished time.Time, err error)) {
	p.queue = append(p.queue, &job{txs: prefix, tail: tail, commit: commit, onDone: onDone})
	p.g.queueDelta(+1)
	if !p.busy {
		p.busy = true
		p.g.r.sched.After(0, p.pump)
	}
}

// pump submits the next transaction of the current job.
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
		p.queue = p.queue[1:]
		g.queueDelta(-1)
		slot := g.host.Profile().SlotDuration
		sched.After(slot+slot/2, func() {
			finished := sched.Now()
			if !j.started.IsZero() {
				lat := finished.Sub(j.started).Seconds()
				g.mJobLatency.Observe(lat)
				g.r.observeLatency(lat)
			}
			j.onDone(j.started, finished, nil)
		})
		sched.After(0, p.pump)
		return
	}
	if j.started.IsZero() {
		// First transaction lands at the next slot boundary.
		j.started = sched.Now().Add(g.host.Profile().SlotDuration / 2)
	}
	tx := j.txs[0]
	j.txs = j.txs[1:]
	// The host's replay protection makes the reliable call's retries
	// idempotent.
	g.r.call(g.node, netsim.KindSubmitTx, netsim.MsgSubmitTx{Tx: tx}, func(_ any, err error) {
		if err != nil {
			// Oversized or malformed transactions are a relayer bug (and a
			// dead-lettered submission surfaces here too); drop the job
			// rather than wedge the queue, and tell its owner.
			p.giveUp(j, err)
			return
		}
		// Only a transaction the host accepted is charged.
		g.r.TotalFees += tx.Fee(g.host.Profile())
		if len(p.closes) > 0 {
			p.closeBuffers()
		}
		sched.After(g.r.cfg.TxGap.Sample(p.rng), p.pump)
	})
}

// giveUp drops the current job, j, and tells its owner. The staging buffer
// its chunks may have filled will never be committed: it is closed once a
// transaction gets through again, since a dead letter means the host was
// out of reach.
func (p *pacer) giveUp(j *job, err error) {
	g, sched := p.g, p.g.r.sched
	p.queue = p.queue[1:]
	g.queueDelta(-1)
	p.closes = append(p.closes, g.builder.CloseBufferTx(j.commit))
	j.onDone(j.started, sched.Now(), err)
	sched.After(0, p.pump)
}

// closeBuffers submits the pending closes, now that a transaction got
// through; one that fails again waits for the next.
func (p *pacer) closeBuffers() {
	g, closes := p.g, p.closes
	p.closes = nil
	for _, tx := range closes {
		g.r.call(g.node, netsim.KindSubmitTx, netsim.MsgSubmitTx{Tx: tx}, func(_ any, err error) {
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
