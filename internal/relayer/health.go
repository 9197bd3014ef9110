package relayer

// LinkHealth is the health sample a relayer exposes to the adaptive
// routing plane: the EWMA latency of its delivery work, the cumulative
// dead-letter count of its reliable network calls, and the depth of its
// queued work. Both Relayer and PairRelayer report it; core aggregates
// the relayers serving one link and feeds the result into routing.View.
type LinkHealth struct {
	// Latency is the EWMA delivery latency in seconds — the same values
	// the relayer's latency histograms observe, folded online so the
	// sample is O(1) to read.
	Latency float64
	// DeadLetters mirrors the <ns>.net_dead_letters counter.
	DeadLetters uint64
	// Backlog is the queued-work depth: inbound packets, pending acks,
	// ack backlogs, and paced jobs not yet landed.
	Backlog int
}

// healthDecay is the EWMA weight of each new latency observation.
const healthDecay = 0.2

// ewma folds one observation into an online EWMA whose zero state means
// "no observations yet".
func ewma(cur, obs float64, seen bool) float64 {
	if !seen {
		return obs
	}
	return healthDecay*obs + (1-healthDecay)*cur
}

// observeHealthLatency folds one delivery-latency sample (seconds) into
// the relayer's health EWMA. Called wherever the job-latency histogram
// observes, so health tracks exactly what the histograms record.
func (r *Relayer) observeHealthLatency(s float64) {
	r.healthLat = ewma(r.healthLat, s, r.healthSeen)
	r.healthSeen = true
}

// Health reports the relayer's current link-health sample. Backlog sums
// every queue a packet can wait in: per-shard inbound/pending-ack/
// ack-backlog work, paced host-tx jobs, and the serialised counterparty
// op and header queues.
func (r *Relayer) Health() LinkHealth {
	backlog := int(r.queuedJobs) + len(r.cpQueue) + len(r.cpHeaderQueue)
	for _, s := range r.shards {
		backlog += len(s.inbound) + len(s.pendingAcks) + len(s.ackBacklog)
	}
	return LinkHealth{
		Latency:     r.healthLat,
		DeadLetters: r.mNetDead.Value(),
		Backlog:     backlog,
	}
}

// observeHealthLatency is the PairRelayer's EWMA fold, fed from the
// per-hop delivery latency histogram.
func (r *PairRelayer) observeHealthLatency(s float64) {
	r.healthLat = ewma(r.healthLat, s, r.healthSeen)
	r.healthSeen = true
}

// Health reports the pair relayer's current link-health sample.
func (r *PairRelayer) Health() LinkHealth {
	backlog := 0
	for _, s := range []*pairSide{r.a, r.b} {
		backlog += len(s.outPackets) + len(s.outAcks) + len(s.ops)
	}
	return LinkHealth{
		Latency:     r.healthLat,
		DeadLetters: r.mNetDead.Value(),
		Backlog:     backlog,
	}
}
