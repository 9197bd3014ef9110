package loadgen

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/cryptoutil"
	"repro/internal/host"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/transfer"
)

// Config parameterises one open-loop load stream: what callers vary. The
// rest of the workload is fixed below.
type Config struct {
	// Seed drives every loadgen stream (decorrelated from the network's
	// own seed via DeriveSeed labels).
	Seed int64
	// Rate is the offered load in transfers per second of virtual time
	// (default 1).
	Rate float64
	// Bursty selects the self-similar arrival process instead of Poisson.
	Bursty bool
	// Deadline arms mempool deadline shedding per transaction (0 = none).
	Deadline time.Duration
}

// The workload every stream offers: a Zipf-1.2 sender out of a million
// (accounts materialise lazily on first touch, so the population is free),
// funded with 10 SOL for fees and credited 1e9 tokens of Denom, sending
// the §V-A shape — small amounts, memos spanning one to a few
// host-transaction chunks — at the base fee with a one-hour IBC timeout.
const (
	// Population is the number of sender accounts.
	Population = 1_000_000
	zipfS      = 1.2
	// Denom is the token denomination transferred.
	Denom = "load"

	amountMin, amountMax = 1, 100
	memoMin, memoMax     = 32, 512

	packetTimeout = time.Hour
	fundLamports  = 10 * host.LamportsPerSOL
	mintTokens    = 1_000_000_000
)

// numReceivers is the size of the account pool terminal transfers credit.
const numReceivers = 64

// Receivers lists every account a terminal transfer may credit on the
// counterparty — what a conservation check sums vouchers over.
func Receivers() []string {
	out := make([]string, numReceivers)
	for i := range out {
		out[i] = fmt.Sprintf("load-recv-%d", i)
	}
	return out
}

// Event is one sampled workload decision; the Sampler exposes it so
// determinism tests can compare full sequences without a network.
type Event struct {
	Gap     time.Duration
	Account uint64
	Channel int
	Amount  uint64
	MemoLen int
}

// Sampler draws the workload's random decisions from four decorrelated
// streams of the config seed — arrivals, accounts, sizes, and channel mix
// each get their own rand.Rand, so the channel count never perturbs the
// arrival sequence.
type Sampler struct {
	channels int
	arrivals Arrivals
	arrRng   *rand.Rand
	sizeRng  *rand.Rand
	mixRng   *rand.Rand
	accounts *Accounts
}

// NewSampler builds a sampler over the given channel count. materialise
// is forwarded to the account population (may be nil).
func NewSampler(cfg Config, channels int, materialise func(idx uint64, pub cryptoutil.PubKey)) *Sampler {
	if cfg.Rate <= 0 {
		cfg.Rate = 1
	}
	stream := func(label string) *rand.Rand {
		return rand.New(rand.NewSource(sim.DeriveSeed(cfg.Seed, "loadgen/"+label)))
	}
	mean := time.Duration(float64(time.Second) / cfg.Rate)
	var arr Arrivals
	if cfg.Bursty {
		arr = &SelfSimilar{Mean: mean}
	} else {
		arr = Poisson{Mean: mean}
	}
	return &Sampler{
		channels: channels,
		arrivals: arr,
		arrRng:   stream("arrivals"),
		sizeRng:  stream("sizes"),
		mixRng:   stream("mix"),
		accounts: NewAccounts(stream("accounts"), materialise),
	}
}

// Accounts exposes the underlying population.
func (s *Sampler) Accounts() *Accounts { return s.accounts }

// Next draws the next workload event: channels take load uniformly, and
// amount and memo padding are uniform over their bounds.
func (s *Sampler) Next() Event {
	ev := Event{Gap: s.arrivals.Next(s.arrRng)}
	if s.channels > 1 {
		ev.Channel = s.mixRng.Intn(s.channels)
	}
	ev.Amount = amountMin + uint64(s.sizeRng.Int63n(amountMax-amountMin+1))
	ev.MemoLen = memoMin + s.sizeRng.Intn(memoMax-memoMin+1)
	ev.Account = s.accounts.SampleIndex()
	return ev
}

// Generator injects an open-loop transfer workload into a core.Network on
// its virtual clock.
type Generator struct {
	net     *core.Network
	cfg     Config
	sampler *Sampler
	seq     uint64

	offered  *telemetry.Counter
	admitted *telemetry.Counter
	rejected *telemetry.Counter
	shed     *telemetry.Counter

	// Per-channel token accounting for the conservation checks:
	// admittedTokens-shedTokens must equal the channel escrow exactly.
	admittedTokens []uint64
	shedTokens     []uint64
	admittedCount  []uint64

	stopAt time.Time
}

// New wires a generator to net. Senders materialise lazily: first touch
// funds the host account for fees and mints guest tokens on every distinct
// transfer app of the topology.
func New(net *core.Network, cfg Config) *Generator {
	g := &Generator{
		net:            net,
		cfg:            cfg,
		offered:        net.Tel.Metrics.Counter("loadgen.offered"),
		admitted:       net.Tel.Metrics.Counter("loadgen.admitted"),
		rejected:       net.Tel.Metrics.Counter("loadgen.rejected"),
		shed:           net.Tel.Metrics.Counter("loadgen.shed"),
		admittedTokens: make([]uint64, len(net.Channels)),
		shedTokens:     make([]uint64, len(net.Channels)),
		admittedCount:  make([]uint64, len(net.Channels)),
	}
	// Channels sharing a port share an app.
	var apps []*transfer.App
	for _, rt := range net.Channels {
		if !slices.Contains(apps, rt.GuestApp) {
			apps = append(apps, rt.GuestApp)
		}
	}
	g.sampler = NewSampler(cfg, len(net.Channels), func(_ uint64, pub cryptoutil.PubKey) {
		net.Host.Fund(pub, fundLamports)
		for _, app := range apps {
			app.Mint(pub.String(), Denom, mintTokens)
		}
	})
	return g
}

// Run offers load for d of virtual time, then lets the caller drain. It
// only schedules work; the caller advances the clock (net.Run).
func (g *Generator) Run(d time.Duration) {
	g.stopAt = g.net.Sched.Now().Add(d)
	g.scheduleNext()
}

func (g *Generator) scheduleNext() {
	ev := g.sampler.Next()
	at := g.net.Sched.Now().Add(ev.Gap)
	if at.After(g.stopAt) {
		return
	}
	g.net.Sched.At(at, func() {
		g.inject(ev)
		g.scheduleNext()
	})
}

// inject offers one transfer; admission failures count as rejections (the
// open-loop source never retries).
func (g *Generator) inject(ev Event) {
	g.seq++
	g.offered.Inc()
	pub := g.sampler.accounts.Pub(ev.Account)
	// The sequence number makes every transfer unique (dedup-safe) even
	// when the Zipf head re-sends the same amount within one slot.
	memo := fmt.Sprintf("%d:%s", g.seq, strings.Repeat("x", ev.MemoLen))
	receiver := fmt.Sprintf("load-recv-%d", ev.Account%numReceivers)
	var deadline time.Time
	if g.cfg.Deadline > 0 {
		deadline = g.net.Sched.Now().Add(g.cfg.Deadline)
	}
	_, err := g.net.InjectTransfer(core.TransferReq{
		Channel:  ev.Channel,
		Sender:   pub,
		Receiver: receiver,
		Denom:    Denom,
		Amount:   ev.Amount,
		Memo:     memo,
		Timeout:  packetTimeout,
		Deadline: deadline,
		OnShed: func() {
			g.shed.Inc()
			g.shedTokens[ev.Channel] += ev.Amount
		},
	})
	switch {
	case err == nil:
		g.admitted.Inc()
		g.admittedTokens[ev.Channel] += ev.Amount
		g.admittedCount[ev.Channel]++
	case errors.Is(err, host.ErrMempoolFull):
		g.rejected.Inc()
	default:
		// Other rejections (duplicate, escrow) still count as rejected:
		// the offered work was not admitted.
		g.rejected.Inc()
	}
}

// Accounts exposes the generator's sender population.
func (g *Generator) Accounts() *Accounts { return g.sampler.accounts }

// AdmittedTokens returns the token sum of admitted transfers on channel
// ch, net of deadline sheds — the amount that must equal the channel's
// escrow exactly.
func (g *Generator) AdmittedTokens(ch int) uint64 {
	return g.admittedTokens[ch] - g.shedTokens[ch]
}

// AdmittedCount returns how many transfers were admitted on channel ch
// (including any later shed).
func (g *Generator) AdmittedCount(ch int) uint64 { return g.admittedCount[ch] }
