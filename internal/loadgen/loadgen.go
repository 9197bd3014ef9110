package loadgen

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/cryptoutil"
	"repro/internal/fees"
	"repro/internal/host"
	"repro/internal/middleware"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// Config parameterises one open-loop load stream.
type Config struct {
	// Seed drives every loadgen stream (decorrelated from the network's
	// own seed via DeriveSeed labels).
	Seed int64
	// Rate is the offered load in transfers per second of virtual time.
	Rate float64
	// Bursty selects the self-similar arrival process instead of Poisson.
	Bursty bool
	// Accounts is the sender population size (millions are free: accounts
	// materialise lazily on first touch).
	Accounts uint64
	// ZipfS is the account-popularity exponent (> 1; default 1.2).
	ZipfS float64
	// Denom is the token denomination transferred (default "load").
	Denom string
	// Sizes profiles transfer amounts and memo padding.
	Sizes SizeProfile
	// Mix weights traffic across the topology's channels.
	Mix ChannelMix
	// Deadline arms mempool deadline shedding per transaction (0 = none).
	Deadline time.Duration
	// Timeout is the IBC packet timeout (default 1h).
	Timeout time.Duration
	// FundLamports funds each materialised sender for fees (default 10 SOL).
	FundLamports host.Lamports
	// MintTokens credits each materialised sender (default 1e9).
	MintTokens uint64
	// PrewarmTop pre-materialises the K most popular accounts in one
	// sharded MintBatch instead of lazily (0 = fully lazy).
	PrewarmTop int
	// Policy is the fee policy for injected transfers.
	Policy fees.Policy
	// Flows mixes forwarding traffic into the workload (zero value: all
	// transfers are terminal).
	Flows FlowProfile
}

func (c Config) withDefaults() Config {
	if c.Rate <= 0 {
		c.Rate = 1
	}
	if c.Accounts == 0 {
		c.Accounts = 1_000_000
	}
	if c.ZipfS <= 1 {
		c.ZipfS = 1.2
	}
	if c.Denom == "" {
		c.Denom = "load"
	}
	if c.Sizes == (SizeProfile{}) {
		c.Sizes = DefaultSizes()
	}
	if c.Timeout <= 0 {
		c.Timeout = time.Hour
	}
	if c.FundLamports <= 0 {
		c.FundLamports = 10 * host.LamportsPerSOL
	}
	if c.MintTokens == 0 {
		c.MintTokens = 1_000_000_000
	}
	return c
}

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
	// Forward marks a transfer that carries a forward memo for the
	// counterparty's forwarding middleware.
	Forward bool
}

// Sampler draws the workload's random decisions from four decorrelated
// streams of the config seed — arrivals, accounts, sizes, and channel mix
// each get their own rand.Rand, so changing e.g. the size profile never
// perturbs the arrival sequence.
type Sampler struct {
	cfg      Config
	channels int
	arrivals Arrivals
	arrRng   *rand.Rand
	sizeRng  *rand.Rand
	mixRng   *rand.Rand
	flowRng  *rand.Rand
	accounts *Accounts
}

// NewSampler builds a sampler over the given channel count. materialise
// is forwarded to the account population (may be nil).
func NewSampler(cfg Config, channels int, materialise func(idx uint64, pub cryptoutil.PubKey)) *Sampler {
	cfg = cfg.withDefaults()
	if channels < 1 {
		channels = 1
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
		cfg:      cfg,
		channels: channels,
		arrivals: arr,
		arrRng:   stream("arrivals"),
		sizeRng:  stream("sizes"),
		mixRng:   stream("mix"),
		flowRng:  stream("flows"),
		accounts: NewAccounts(stream("accounts"), cfg.Accounts, cfg.ZipfS, materialise),
	}
}

// Accounts exposes the underlying population.
func (s *Sampler) Accounts() *Accounts { return s.accounts }

// Next draws the next workload event.
func (s *Sampler) Next() Event {
	ev := Event{
		Gap:     s.arrivals.Next(s.arrRng),
		Channel: s.cfg.Mix.Sample(s.mixRng, s.channels),
		Amount:  s.cfg.Sizes.SampleAmount(s.sizeRng),
		MemoLen: s.cfg.Sizes.SampleMemoLen(s.sizeRng),
		Forward: s.cfg.Flows.SampleForward(s.flowRng),
	}
	ev.Account = s.accounts.SampleIndex()
	return ev
}

// Stats are the generator's offered/admitted/rejected/shed counts. A
// transaction counts admitted when Submit accepts it and shed if the
// mempool later drops it past its deadline, so Admitted-Shed is the load
// that actually reached execution.
type Stats struct {
	Offered  uint64
	Admitted uint64
	Rejected uint64
	Shed     uint64
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
	cfg = cfg.withDefaults()
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
	apps := g.distinctApps()
	materialise := func(_ uint64, pub cryptoutil.PubKey) {
		net.Host.Fund(pub, cfg.FundLamports)
		for _, app := range apps {
			app.Mint(pub.String(), cfg.Denom, cfg.MintTokens)
		}
	}
	g.sampler = NewSampler(cfg, len(net.Channels), materialise)
	if cfg.PrewarmTop > 0 {
		g.prewarm(cfg.PrewarmTop, apps)
	}
	return g
}

// distinctApps lists the topology's distinct guest-side transfer apps
// (channels sharing a port share an app).
func (g *Generator) distinctApps() []appMinter {
	var apps []appMinter
	seen := make(map[appMinter]bool)
	for _, rt := range g.net.Channels {
		if !seen[rt.GuestApp] {
			seen[rt.GuestApp] = true
			apps = append(apps, rt.GuestApp)
		}
	}
	return apps
}

// appMinter is the slice of the transfer app the generator needs.
type appMinter interface {
	Mint(account, denom string, amount uint64)
	MintBatch(accounts []string, denom string, amount uint64)
}

// prewarm materialises the top-k most popular accounts (the Zipf head is
// the lowest indices) in one sharded MintBatch per app.
func (g *Generator) prewarm(k int, apps []appMinter) {
	if uint64(k) > g.cfg.Accounts {
		k = int(g.cfg.Accounts)
	}
	names := make([]string, 0, k)
	for i := 0; i < k; i++ {
		pub := g.sampler.accounts.Pub(uint64(i)) // funds via materialise
		names = append(names, pub.String())
	}
	// Pub's materialise hook already minted MintTokens once per app; the
	// batch tops the head accounts up so they survive heavy reuse.
	for _, app := range apps {
		app.MintBatch(names, g.cfg.Denom, g.cfg.MintTokens)
	}
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
	if ev.Forward {
		// Address the counterparty's forwarding module account and fold the
		// unique padding memo into the onward hop so dedup still holds.
		receiver = g.cfg.Flows.ForwardAccount
		memo = middleware.ForwardMemo(middleware.ForwardInfo{
			Port:     g.cfg.Flows.ForwardPort,
			Channel:  g.cfg.Flows.ForwardChannel,
			Receiver: g.cfg.Flows.ForwardReceiver,
			Memo:     memo,
		})
	}
	var deadline time.Time
	if g.cfg.Deadline > 0 {
		deadline = g.net.Sched.Now().Add(g.cfg.Deadline)
	}
	_, err := g.net.InjectTransfer(core.TransferReq{
		Channel:  ev.Channel,
		Sender:   pub,
		Receiver: receiver,
		Denom:    g.cfg.Denom,
		Amount:   ev.Amount,
		Memo:     memo,
		Policy:   g.cfg.Policy,
		Timeout:  g.cfg.Timeout,
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

// Stats returns the generator's counters.
func (g *Generator) Stats() Stats {
	return Stats{
		Offered:  g.offered.Value(),
		Admitted: g.admitted.Value(),
		Rejected: g.rejected.Value(),
		Shed:     g.shed.Value(),
	}
}

// AdmittedTokens returns the token sum of admitted transfers on channel
// ch, net of deadline sheds — the amount that must equal the channel's
// escrow exactly.
func (g *Generator) AdmittedTokens(ch int) uint64 {
	return g.admittedTokens[ch] - g.shedTokens[ch]
}

// AdmittedCount returns how many transfers were admitted on channel ch
// (including any later shed).
func (g *Generator) AdmittedCount(ch int) uint64 { return g.admittedCount[ch] }
