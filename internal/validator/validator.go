// Package validator implements the guest blockchain validator daemon
// (§III-B, Alg. 2): it watches for NewBlock events, signs each block with
// its key, and submits the Sign transaction under its own fee policy. The
// behaviour model (latency distribution, fee level, liveness) reproduces
// the per-validator statistics of Table I, including the 7 of 24
// validators that never signed and validator #1's heavy-tailed outages.
package validator

import (
	"math/rand"
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/fees"
	"repro/internal/guest"
	"repro/internal/guestblock"
	"repro/internal/host"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// Behaviour models one operator's characteristics.
type Behaviour struct {
	// Active is false for validators that staked but never ran a daemon
	// (7 of 24 in the deployment).
	Active bool
	// JoinAt is when the operator stakes and (if Active) starts the
	// daemon, relative to network genesis; the gradually growing
	// validator set is what spreads Table I's signature counts.
	JoinAt time.Duration
	// Latency is the distribution of block-seen → signature-submitted
	// delay.
	Latency sim.Dist
	// Policy is the validator's fixed fee policy (Table I cost column).
	Policy fees.Policy
}

// SignRecord is one submitted signature, for the Table I statistics.
type SignRecord struct {
	// Latency is block generation → sign transaction landing.
	Latency time.Duration
	// Cost is the transaction fee paid.
	Cost host.Lamports
}

// Validator is the daemon for one validator key.
type Validator struct {
	Key       *cryptoutil.PrivKey
	Behaviour Behaviour

	chain    *host.Chain
	contract *guest.Contract
	builder  *guest.TxBuilder
	sched    *sim.Scheduler
	rng      *rand.Rand

	// Records collects per-signature statistics.
	Records []SignRecord
	// signedHeights guards against double submission.
	signedHeights map[uint64]bool
	// joined marks the daemon as started (JoinAt reached).
	joined bool

	seed      int64
	telemetry *telemetry.Registry
	// Instruments (nil-safe no-ops without WithTelemetry).
	mSignatures *telemetry.Counter

	// The daemon's address on the simulated network: host-block
	// notifications wake it to pull its reader (so a dropped one loses
	// nothing) and sign transactions go out as reliable calls that retry
	// until the host acknowledges.
	ep     *netsim.Endpoint
	blocks *host.Reader
	pulled []*host.Block // Pull's buffer, empty between wake-ups
	// Shared across validators, like the sign counter.
	mNetRetries *telemetry.Counter
}

// Option configures a validator daemon.
type Option func(*Validator)

// WithSeed sets the latency-sampling RNG seed (default 0).
func WithSeed(seed int64) Option {
	return func(v *Validator) { v.seed = seed }
}

// WithTelemetry registers the daemon's signature counter and sign-latency
// histogram (shared across validators under "validator.") in reg.
func WithTelemetry(reg *telemetry.Registry) Option {
	return func(v *Validator) { v.telemetry = reg }
}

// New creates a validator daemon at netsim.ValidatorNode(index) on net (a
// zero-value netsim config is lossless and synchronous). The validator's
// host account must be funded separately to cover fees.
func New(key *cryptoutil.PrivKey, b Behaviour, chain *host.Chain, contract *guest.Contract, sched *sim.Scheduler, net *netsim.Network, index int, opts ...Option) *Validator {
	builder := guest.NewTxBuilder(contract, key.Public())
	builder.PriorityFee = b.Policy.PriorityFee
	builder.BundleTip = b.Policy.BundleTip
	v := &Validator{
		Key:           key,
		Behaviour:     b,
		chain:         chain,
		contract:      contract,
		builder:       builder,
		sched:         sched,
		signedHeights: make(map[uint64]bool),
		blocks:        chain.NewReader(),
	}
	for _, o := range opts {
		o(v)
	}
	v.rng = rand.New(rand.NewSource(v.seed))
	v.mSignatures = v.telemetry.Counter("validator.signatures")
	v.mNetRetries = v.telemetry.Counter("validator.net_retries")
	v.ep = net.Node(netsim.ValidatorNode(index), v.onNetMessage, nil)
	return v
}

// onNetMessage consumes wire notifications addressed to this daemon.
func (v *Validator) onNetMessage(_ netsim.NodeID, kind string, _ any) {
	if kind != netsim.KindHostBlock {
		return
	}
	// The notification is only a wake-up; the pull consumes every block
	// exactly once even when notifications drop.
	v.pulled = v.blocks.Pull(v.pulled[:0])
	for _, b := range v.pulled {
		v.OnHostBlock(b)
	}
	clear(v.pulled) // pin no block the host has trimmed
}

// Activate starts the daemon (scheduled at Behaviour.JoinAt).
func (v *Validator) Activate() { v.joined = true }

// OnHostBlock processes one host block's events (Alg. 2 upon NewBlock).
func (v *Validator) OnHostBlock(b *host.Block) {
	if !v.Behaviour.Active || !v.joined {
		return
	}
	for _, ev := range b.Events {
		nb, ok := ev.Payload.(guest.EventNewBlock)
		if !ok {
			continue
		}
		v.maybeSign(nb.Block, b.Time)
	}
	// Recovery path: a daemon that was down (or joined late) signs any
	// still-unfinalised tail blocks it may have missed — without this,
	// one missed NewBlock event would wedge finalisation forever. With
	// pipelining the unfinalised tail can be several blocks deep, so
	// walk all of it (the scan is bounded by PipelineDepth).
	st, err := v.contract.State(v.chain)
	if err != nil {
		return
	}
	for i := len(st.Entries) - 1; i >= 0 && !st.Entries[i].Finalised; i-- {
		e := st.Entries[i]
		v.maybeSign(e.Block, e.CreatedAt)
	}
}

// maybeSign schedules a signature for block if due.
func (v *Validator) maybeSign(block *guestblock.Block, created time.Time) {
	if !v.inEpoch(block) || v.signedHeights[block.Height] {
		return
	}
	v.signedHeights[block.Height] = true
	delay := v.Behaviour.Latency.Sample(v.rng)
	v.sched.After(delay, func() {
		v.submitSign(block, created)
	})
}

func (v *Validator) inEpoch(block *guestblock.Block) bool {
	st, err := v.contract.State(v.chain)
	if err != nil {
		return false
	}
	entry, err := st.Entry(block.Height)
	if err != nil {
		return false
	}
	return entry.Epoch.Has(v.Key.Public())
}

// submitSign signs and submits; latency is measured at submission (the
// host includes it in the next slot, which Table I's 0.4 s quantisation
// reflects).
func (v *Validator) submitSign(block *guestblock.Block, created time.Time) {
	tx := v.builder.SignTx(v.Key, block)
	v.submitTx(tx, func(err error) {
		if err != nil {
			// Bounced at mempool admission (congestion): clear the
			// signed marker so the recovery scan in OnHostBlock retries
			// on a later host block instead of wedging finalisation.
			delete(v.signedHeights, block.Height)
			return
		}
		// Landing happens at the next slot boundary; record latency as
		// submission delay plus the half-slot expectation, quantised by
		// the host's slots like the paper's dataset.
		slot := v.chain.Profile().SlotDuration
		land := v.sched.Now().Add(slot / 2)
		latency := land.Sub(created).Truncate(slot)
		if latency <= 0 {
			latency = slot
		}
		v.Records = append(v.Records, SignRecord{
			Latency: latency,
			Cost:    tx.Fee(v.chain.Profile()),
		})
		v.mSignatures.Inc()
	})
}

// submitTx submits one host transaction as a reliable call that retries
// until the host acknowledges. done fires exactly once with the submission
// outcome.
func (v *Validator) submitTx(tx *host.Transaction, done func(error)) {
	v.ep.ReliableCall(netsim.HostNode, netsim.KindSubmitTx, netsim.MsgSubmitTx{Txs: []*host.Transaction{tx}},
		netsim.DefaultRetryPolicy(), netsim.RetryObserver{Retries: v.mNetRetries}, func(_ any, err error) { done(err) })
}

// SignCount returns the number of submitted signatures.
func (v *Validator) SignCount() int { return len(v.Records) }

// LatenciesSeconds returns per-signature latencies in seconds.
func (v *Validator) LatenciesSeconds() []float64 {
	out := make([]float64, 0, len(v.Records))
	for _, r := range v.Records {
		out = append(out, r.Latency.Seconds())
	}
	return out
}

// PublishForgedSignature is the byzantine action the fisherman example and
// tests exploit: the validator signs an arbitrary (non-canonical) block
// hash and returns the signature for gossip.
func (v *Validator) PublishForgedSignature(forgedHash cryptoutil.Hash) guestblock.BlockSignature {
	payload := guestblock.SigningPayloadForHash(forgedHash)
	return guestblock.BlockSignature{
		PubKey:    v.Key.Public(),
		Signature: v.Key.SignHash(payload),
	}
}
