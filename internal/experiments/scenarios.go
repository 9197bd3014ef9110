package experiments

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/guest"
	"repro/internal/host"
	"repro/internal/ibc"
	"repro/internal/loadgen"
	"repro/internal/middleware"
	"repro/internal/netsim"
	"repro/internal/nodestore"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/transfer"
)

// The registry: every acceptance scenario — the packet plane's and the
// two fleet incidents — as Scenario literals, plus — where the ledger cannot express what the scenario is
// for — one verdict function over the reports.

// Check is one line of a scenario's verdict: a measured figure and whether
// it meets the scenario's bar.
type Check struct {
	OK   bool
	Text string
}

// Verdict is a scenario's bar over the reports of its runs.
type Verdict = func([]*Report) []Check

// registry lists the acceptance scenarios in the order -help shows them:
// each entry builds the runs the scenario makes, in order, and the verdict
// over their reports (nil when the ledger says it all).
var registry = []struct {
	name  string
	build func(name string) ([]Scenario, Verdict)
}{
	// 3 hops over two forwarding chains, 2 hops, and 2 hops against the
	// first two.
	{"mesh-line", func(name string) ([]Scenario, Verdict) {
		return []Scenario{meshScenario(name, LineMeshTopology(), [2]string{"guest", "c"}, [2]string{"a", "c"}, [2]string{"c", "a"})}, nil
	}},
	// 2 hops through a forwarding chain, and each arm's direct hop.
	{"mesh-diamond", func(name string) ([]Scenario, Verdict) {
		return []Scenario{meshScenario(name, DiamondMeshTopology(), [2]string{"guest", "c"}, [2]string{"a", "c"}, [2]string{"b", "c"})}, nil
	}},
	{"middleware", func(name string) ([]Scenario, Verdict) {
		return []Scenario{middlewareScenario(name, netsim.Config{})}, middlewareVerdict
	}},
	{"middleware-chaos", func(name string) ([]Scenario, Verdict) {
		return []Scenario{middlewareScenario(name, ChaosLink())}, middlewareVerdict
	}},
	{"multichannel", func(name string) ([]Scenario, Verdict) {
		return []Scenario{
			multichannelScenario(name, 4, 0.25, ChaosLink()),
			multichannelScenario(name+"-1ch-lossless", 1, 0, netsim.Config{}),
			multichannelScenario(name+"-4ch-lossless", 4, 0, netsim.Config{}),
		}, multichannelVerdict
	}},
	{"adaptive", func(string) ([]Scenario, Verdict) {
		return []Scenario{diamondScenario("diamond-static", false), diamondScenario("diamond-adaptive", true), raceScenario()}, adaptiveVerdict
	}},
	{"load", func(name string) ([]Scenario, Verdict) {
		return []Scenario{loadScenario(name, loadgen.Config{Rate: 0.2}, 5*time.Minute, 30*time.Minute)}, loadVerdict
	}},
	// Far more than the deployment can relay (capacity is pinned by relayer
	// pacing at well under 1 packet/s/channel) against a deliberately tight
	// host: small mempool, small per-slot budget, aggressive deadlines.
	// Admission control must shed the excess and every admitted packet
	// must still conserve.
	{"overload", func(name string) ([]Scenario, Verdict) {
		s := loadScenario(name, loadgen.Config{Rate: 100, Bursty: true, Deadline: 2 * time.Second}, 2*time.Minute, 10*time.Minute)
		s.Net.MempoolLimit, s.Net.HostProfile, s.MidFlight = 48, host.SolanaProfile(), true
		s.Net.HostProfile.BlockComputeBudget = 100_000
		return []Scenario{s}, loadVerdict
	}},
	{"outage", outageScenario},
	{"recover", recoverScenario},
	// The runner's own self-test, which must FAIL: a voucher minted on the
	// destination behind the protocol's back must come back as that flow's
	// violation.
	{"stray-voucher", func(name string) ([]Scenario, Verdict) {
		s := multichannelScenario(name, 1, 0, netsim.Config{})
		s.Packets, s.Window, s.Drain = 4, time.Hour, time.Hour
		s.Actions = []Action{{At: 30 * time.Minute, Do: func(net *core.Network) error {
			rt := net.Channels[0]
			rt.CPApp.Mint(s.Flows[0].Receiver, transfer.VoucherPrefix(rt.Spec.CPPort, rt.CPChannel)+s.Flows[0].Denom, 7)
			return nil
		}}}
		return []Scenario{s}, nil
	}},
}

// Names lists the registered scenarios in registry order.
func Names() []string {
	names := make([]string, len(registry))
	for i, e := range registry {
		names[i] = e.name
	}
	return names
}

// Lookup returns a registered acceptance scenario: its runs and verdict,
// built fresh on every call, so the caller may override Net.Seed, Packets,
// Window, Load.Rate or Net.Store.Dir before running them.
func Lookup(name string) (runs []Scenario, v Verdict, ok bool) {
	for _, e := range registry {
		if e.name == name {
			runs, v = e.build(name)
			return runs, v, true
		}
	}
	return nil, nil, false
}

// Send schedules and amounts.

// jittered spreads the bursts evenly inside the window, each up to a
// minute late.
func jittered(rng *rand.Rand, j, n int, window time.Duration) time.Duration {
	return window*time.Duration(j+1)/time.Duration(n+2) + time.Duration(rng.Int63n(int64(time.Minute)))
}

// spaced puts the bursts one even interval apart, the first at the start
// (skip 0) or one interval in (skip 1).
func spaced(skip int) func(*rand.Rand, int, int, time.Duration) time.Duration {
	return func(_ *rand.Rand, j, n int, window time.Duration) time.Duration {
		return window * time.Duration(j+skip) / time.Duration(n+skip)
	}
}

func uniform(max int) func(*rand.Rand, int) uint64 {
	return func(rng *rand.Rand, _ int) uint64 { return 1 + uint64(rng.Intn(max)) }
}

func ramp(base uint64) func(*rand.Rand, int) uint64 {
	return func(_ *rand.Rand, j int) uint64 { return base + uint64(j) }
}

// The literals.

// meshScenario is the N-chain mesh acceptance run: routed multi-hop
// transfers over a 4-chain topology under per-link chaos, 6 bursts over 6
// simulated hours. Each flow moves its own denom, so the per-hop escrows
// telescope exactly with no cross-flow mixing; every destination is a
// cosmos chain.
func meshScenario(name string, spec core.MeshSpec, ends ...[2]string) Scenario {
	s := Scenario{
		Name: name, Net: core.Config{Seed: 1, Mesh: meshChaos(spec)},
		Packets: 6, Stream: "experiments/mesh", At: jittered, Amount: uniform(200),
		Window: 6 * time.Hour, Drain: 3 * time.Hour,
	}
	for i, e := range ends {
		s.Flows = append(s.Flows, Flow{
			Src: e[0], Dst: e[1],
			Sender: fmt.Sprintf("mesh-sender-%d", i), Receiver: fmt.Sprintf("mesh-recv-%d", i),
			Denom: fmt.Sprintf("MESH%d", i), Tag: fmt.Sprintf("mesh/%d", i),
		})
	}
	return s
}

// multichannelScenario is the multi-channel throughput run: n channels
// multiplexed over the one guest↔counterparty connection (the first
// ⌈ordered·n⌉ Ordered), 24 bursts over 12 simulated hours. Burst j hits
// every channel at the same instant — the concurrent-traffic shape whose
// update cost the shared scheduler amortises.
func multichannelScenario(name string, n int, ordered float64, faults netsim.Config) Scenario {
	s := Scenario{
		Name: name, Net: core.Config{Seed: 1, Channels: ChannelTopology(n, ordered), Net: faults},
		Packets: 24, Stream: "experiments/multichannel", At: jittered, Amount: uniform(100),
		Window: 12 * time.Hour, Drain: 2 * time.Hour,
	}
	for i := 0; i < n; i++ {
		s.Flows = append(s.Flows, Flow{
			Src: "guest", Dst: "cp", Sender: fmt.Sprintf("mc-sender-%d", i), Receiver: "mc-receiver",
			Denom: "TOK", Channels: []int{i},
		})
	}
	return s
}

// middlewareScenario is the middleware-chain run: 16 transfers over 8
// simulated hours, each paying an ICS-29 fee escrow on the guest send
// path, forwarded by the counterparty back to the guest's "transfer-1"
// app (the SAME counterparty app serves both channels, so the hub's
// vouchers and second-hop escrow live on one ledger), where a metered recv
// callback fires per delivery.
func middlewareScenario(name string, faults netsim.Config) Scenario {
	const budget = 1_000
	return Scenario{
		Name: name,
		Net: core.Config{Seed: 1, Net: faults, Channels: []core.ChannelSpec{
			{
				GuestPort: "transfer", CPPort: "transfer",
				GuestMiddleware: []core.MiddlewareSpec{{Kind: core.MiddlewareFees,
					Fees: middleware.FeeSchedule{Denom: "fee", RecvFee: 3, AckFee: 2, TimeoutFee: 4}}},
				CPMiddleware: []core.MiddlewareSpec{{Kind: core.MiddlewareForward}},
			},
			{
				GuestPort: "transfer-1", CPPort: "transfer",
				GuestMiddleware: []core.MiddlewareSpec{{Kind: core.MiddlewareCallbacks}},
			},
		}},
		Flows: []Flow{{
			Src: "guest", Dst: "guest", Sender: "mw-sender", Receiver: "mw-final-receiver",
			Denom: "TOK", Channels: []int{0, 1},
		}},
		Packets: 16, Stream: "experiments/middleware", At: jittered, Amount: uniform(100),
		// The terminal recv hook burns half its allowance per delivery;
		// exactly-once dispatch means it runs once per hop-two packet even
		// when the chaos duplicates deliveries.
		Actions: []Action{{Do: func(net *core.Network) error {
			hop2 := net.Channels[1]
			hop2.GuestStack.Middleware("callbacks").(*middleware.Callbacks).Register(hop2.Spec.GuestPort, hop2.GuestChannel,
				&middleware.Callback{Budget: budget, OnRecv: func(_ ibc.Packet, m middleware.Meter) error { return m.Consume(budget / 2) }})
			return nil
		}}},
		Window: 8 * time.Hour, Drain: 2 * time.Hour,
	}
}

// The degraded diamond: the a–c arm ramps to seconds of latency plus 10%
// drop at degradeAt; retries are infinite, so packets still land — late —
// and conservation stays exact. The migration verdict applies grace later:
// the view needs degraded samples to observe and one hysteresis-gated
// recompute to react.
const (
	degradeAt = 2*time.Hour + 30*time.Minute
	grace     = time.Hour
)

// diamondScenario is one arm of the adaptive-routing pair: 36 guest→c
// transfers over 6 h on a diamond whose arms are equal until a–c
// degrades. adaptive selects the routing plane; seed, workload and
// degradation are identical, so the pair isolates the routing decision.
func diamondScenario(name string, adaptive bool) Scenario {
	spec := DiamondMeshTopology()
	if adaptive {
		spec.Routing = core.RoutingAdaptive
		// A generous ECMP spread keeps both (initially symmetric) arms in
		// the equal-cost set, so the pre-degradation split is visible and
		// the post-degradation migration is a real routing decision.
		spec.Cost = routing.CostModel{ECMPSpread: 0.25, Hysteresis: 0.2}
	}
	return Scenario{
		Name: name, Net: core.Config{Seed: 1, Mesh: spec},
		Flows:   []Flow{{Src: "guest", Dst: "c", Sender: "adaptive-sender", Receiver: "adaptive-recv", Denom: "ADPT", Tag: "adaptive"}},
		Packets: 36, At: spaced(0), Amount: ramp(10),
		Actions: []Action{{At: degradeAt, Do: func(net *core.Network) error {
			return net.DegradeMeshLink("a", "c", netsim.LinkConfig{
				Latency: sim.Uniform{Min: 3 * time.Second, Max: 8 * time.Second}, Drop: 0.10,
			})
		}}},
		Window: 6 * time.Hour, Drain: 3 * time.Hour,
	}
}

// raceScenario races two relayers on a single guest link with an ICS-29
// fee schedule: the idempotent front-end makes duplicate deliveries safe,
// the winner's payee claims the delivery fee, and the loser counts a lost
// race per packet.
func raceScenario() Scenario {
	return Scenario{
		Name: "relayer-race",
		Net: core.Config{Seed: 1, Mesh: core.MeshSpec{
			Chains: []core.MeshChainSpec{{Name: "guest", Kind: core.MeshGuest}, {Name: "a"}},
			Links:  []core.MeshLinkSpec{{A: "guest", B: "a", Relayers: 2}},
			Fees:   middleware.FeeSchedule{Denom: "FEE", RecvFee: 2, AckFee: 1, TimeoutFee: 1},
		}},
		Flows:   []Flow{{Src: "guest", Dst: "a", Sender: "race-sender", Receiver: "race-recv", Denom: "RACE", Tag: "race"}},
		Packets: 12, At: spaced(1), Amount: ramp(5),
		Window: 130 * time.Minute, Drain: 2 * time.Hour,
	}
}

// loadScenario offers an open-loop loadgen stream to a 2-channel pair with
// guest blocks pipelined 3 deep.
func loadScenario(name string, load loadgen.Config, window, drain time.Duration) Scenario {
	params := guest.DefaultParams()
	params.PipelineDepth = 3
	return Scenario{
		Name: name, Net: core.Config{Seed: 1, Channels: ChannelTopology(2, 0), GuestParams: params},
		Load: &load, Window: window, Drain: drain,
	}
}

// The fleet incidents: the §V-C pivotal-validator outage and the power cut
// that "finalised ⇒ durable" is stated against. They share one deployment.

// outageLength is the §V-C incident ("about 9.5 hours"): the window the
// outage injects and the floor its verdict holds the stall to.
const outageLength = 9*time.Hour + 30*time.Minute

// pivotalScenario is a four-validator guest whose validator 0 holds 40% of
// stake — the other three's 60% sits below the 2/3 quorum, so finalisation
// exists only with it — and is crashed by a netsim fault window (not a
// modelled latency tail) for dark from hour 24, while one guest→cp flow
// sends packets transfers one even interval apart over window.
func pivotalScenario(name string, dark time.Duration, packets int, window, drain time.Duration) Scenario {
	const sol = host.LamportsPerSOL
	return Scenario{
		Name: name,
		Net: core.Config{
			Seed:       1,
			Behaviours: uniformFleet(4, sim.Uniform{Min: 2 * time.Second, Max: 4 * time.Second}),
			Stakes:     []host.Lamports{400 * sol, 200 * sol, 200 * sol, 200 * sol},
			Net: netsim.Config{Crashes: []netsim.CrashWindow{
				{Node: netsim.ValidatorNode(0), From: 24 * time.Hour, Duration: dark},
			}},
		},
		Flows: []Flow{{
			Src: "guest", Dst: "cp", Sender: name + "-sender", Receiver: "cp-receiver", Denom: "GUEST", Tag: name, Channels: []int{0},
		}},
		Packets: packets, At: spaced(1), Amount: ramp(1),
		Window: window, Drain: drain,
	}
}

// outageScenario reproduces the §V-C liveness incident in isolation: an
// hourly transfer for 36 h across the 9.5 h the pivotal validator is dark,
// run through the heal plus 12 h. The ledger holds what the paper claims
// of the stall — nothing is lost: every transfer sent before, during and
// after it ends delivered and acknowledged exactly once — and the verdict
// holds the stall itself, read off the guest-block cadence histograms.
func outageScenario(name string) ([]Scenario, Verdict) {
	const sending, healed = 36 * time.Hour, 24*time.Hour + outageLength
	s := pivotalScenario(name, outageLength, 35, sending, healed+12*time.Hour-sending)
	return []Scenario{s}, func(rs []*Report) []Check {
		tel := rs[0].tel
		// Every block after genesis leaves one interval sample when it is
		// generated and one finalisation delay when it is finalised; one
		// block stalls, so the median is the typical delay.
		blocks, delays := len(tel.HistogramSamples("guest.block.interval_s")), stats.Summarize(tel.HistogramSamples("guest.block.finalise_s"))
		stall, floor := delays.Max, outageLength.Seconds()
		// Retries may be zero: a fully crashed daemon originates nothing, so
		// recovery comes from the cursor pull and head re-signing, not the
		// retry timer.
		dropped, retries := tel.Counter("netsim.dropped_crash"), tel.Counter("validator.net_retries")+tel.Counter("relayer.net_retries")
		return []Check{
			check(blocks > 0 && delays.N == blocks, "guest blocks: %d generated, %d finalised (the stall loses none)", blocks, delays.N),
			check(stall >= floor && stall <= floor+time.Hour.Seconds(),
				"stall: longest finalisation %.0fs, want the %.0fs outage and at most 1h more (validator 0 is pivotal, recovery prompt)", stall, floor),
			check(delays.Med > 0 && delays.Med <= 60, "typical finalisation: median %.1fs", delays.Med),
			check(dropped > 0, "crash window dropped %d messages (%d reliable-call retries)", dropped, retries),
		}
	}
}

// recovery is what the recover scenario's closing action found.
type recovery struct {
	// head and finalised are the guest's tip and last finalised height at
	// the power cut; the gap is committed but never finalised, so never
	// fsynced, and the cut legitimately discards it. recovered is the
	// reopened WAL's head.
	head, finalised, recovered uint64
	rootMatch                  bool
	retained                   int // historical versions the reopened store serves
	sampled, identical         int // pre-cut historical proofs, and how many regenerated byte for byte
}

// recoverScenario is the kill-and-recover run. The same guest on a
// WAL-backed store (the caller names Net.Store.Dir; the WAL lands under
// its "guest") sends a transfer every 30 minutes; finalisation fsyncs the
// WAL, so finalised ⇒ durable. Validator 0 goes dark for 6 h and the run
// ends 3 h in, transfers in flight: finalisation has stalled while block
// generation kept appending unsynced commits. The closing action cuts the
// power there, reopens the WAL cold and regenerates historical proofs.
func recoverScenario(name string) ([]Scenario, Verdict) {
	s := pivotalScenario(name, 6*time.Hour, 53, 27*time.Hour, 0)
	s.Net.Store, s.MidFlight = core.StoreSpec{ColdRetention: 16}, true
	var got recovery
	s.Actions = []Action{{At: s.Window, Do: func(net *core.Network) (err error) {
		got, err = powerCut(net)
		return err
	}}}
	return []Scenario{s}, func([]*Report) []Check {
		return []Check{
			check(got.rootMatch, "root_match: recovered height %d against last finalised %d", got.recovered, got.finalised),
			check(got.sampled > 0 && got.identical == got.sampled, "historical proofs: %d of %d regenerated byte-identical", got.identical, got.sampled),
			check(got.head > got.finalised, "the cut discarded %d unfinalised blocks (head %d)", got.head-got.finalised, got.head),
			check(got.retained > 0, "retained versions recovered: %d", got.retained),
		}
	}
}

// powerCut samples membership proofs at retained finalised heights, cuts
// the guest's disk store at the WAL's last durable byte — what a kill -9
// after a torn buffered write leaves — reopens it cold, and compares: the
// recovered head must be the last finalised root, and every sampled proof
// must regenerate byte for byte from the recovered store.
func powerCut(net *core.Network) (recovery, error) {
	var got recovery
	disk, ok := net.GuestNodeStore.(*nodestore.Disk)
	if !ok {
		return got, errors.New("power cut: the guest has no disk store (set Net.Store.Dir)")
	}
	st, err := net.GuestState()
	if err == nil {
		err = st.PersistError()
	}
	if err != nil {
		return got, fmt.Errorf("power cut: guest state before the cut: %w", err)
	}
	lf := st.LatestFinalised()
	got.head, got.finalised = st.Height(), lf.Block.Height

	// Paths live since the handshake: the channel end and its
	// send-sequence counter, at the 4 newest retained finalised heights.
	type sample struct {
		version      ibc.Version
		path         string
		value, proof []byte
	}
	var samples []sample
	rt := net.Channels[0]
	for h := got.finalised; h > 0 && len(samples) < 8; h-- {
		ro, err := st.SnapshotAt(h)
		if entry, eerr := st.Entry(h); err != nil || eerr != nil || !entry.Finalised {
			continue // pruned or unfinalised
		}
		for _, p := range []string{ibc.ChannelPath(rt.Spec.GuestPort, rt.GuestChannel), ibc.NextSequenceSendPath(rt.Spec.GuestPort, rt.GuestChannel)} {
			val, proof, err := ro.ProveMembership(p)
			if err != nil {
				return got, fmt.Errorf("power cut: proof of %q at height %d: %w", p, h, err)
			}
			samples = append(samples, sample{ro.Version(), p, val, proof})
		}
	}
	got.sampled = len(samples)

	if err := disk.Crash(); err != nil {
		return got, err
	}
	reopened, err := nodestore.Open(disk.Dir(), nodestore.DiskConfig{})
	if err != nil {
		return got, err
	}
	store, err := ibc.NewStoreWithBackend(reopened)
	if err != nil {
		reopened.Close()
		return got, err
	}
	if rec := reopened.Recovered(); rec != nil {
		got.recovered, got.retained = rec.Head.Height, len(rec.Retained)
		got.rootMatch = rec.Head.Height == got.finalised && rec.Head.Root == lf.Block.StateRoot
	}
	for _, s := range samples {
		// A version that is not durable can only be an unsynced commit.
		if ro, err := store.At(s.version); err == nil {
			if val, proof, err := ro.ProveMembership(s.path); err == nil && bytes.Equal(val, s.value) && bytes.Equal(proof, s.proof) {
				got.identical++
			}
		}
	}
	return got, store.CloseBackend()
}

// The verdicts.

func check(ok bool, format string, args ...any) Check {
	return Check{OK: ok, Text: fmt.Sprintf(format, args...)}
}

// sent sums the admitted transfers over a report's flows.
func (r *Report) sent() (n uint64) {
	for _, f := range r.Flows {
		n += uint64(f.Admitted)
	}
	return n
}

// feesPerPacket holds the fee books to the schedule (one per deployment):
// every delivered packet earns its relayer the recv and ack legs and
// refunds the sender the unused timeout leg.
func feesPerPacket(r *Report) Check {
	var paid, refunded uint64
	for _, b := range r.Fees {
		paid, refunded = paid+b.Paid, refunded+b.Refunded
	}
	n, fee := r.sent(), r.Fees[0].Schedule
	return check(paid == n*(fee.RecvFee+fee.AckFee) && refunded == n*fee.TimeoutFee,
		"fee legs: paid %d = %d packets x (recv %d + ack %d), refunded %d = %d x timeout %d",
		paid, n, fee.RecvFee, fee.AckFee, refunded, n, fee.TimeoutFee)
}

// chaosBit holds a run that injects faults to having felt them.
func chaosBit(r *Report) Check {
	var retries uint64
	for _, l := range r.Links {
		retries += l.NetRetries
	}
	return check(retries > 0, "chaos forced %d reliable-call retries", retries)
}

func middlewareVerdict(rs []*Report) []Check {
	r := rs[0]
	n := r.sent()
	forwarded, stranded := r.tel.Counter("cp.mw.forward.forwarded"), r.tel.Counter("cp.mw.forward.stranded")
	executed, rejected := r.tel.Counter("guest.mw.callbacks.executed"), r.tel.Counter("guest.mw.callbacks.recv_rejected")
	out := []Check{
		check(forwarded == n && stranded == 0, "forwarded: %d (stranded %d)", forwarded, stranded),
		check(executed == n && rejected == 0, "callbacks: %d executed, %d rejected (once per hop-two packet)", executed, rejected),
		feesPerPacket(r),
	}
	if r.Scenario.Net.Net.Default.Drop > 0 {
		out = append(out, chaosBit(r))
	}
	return out
}

// multichannelVerdict holds the chaos run to having felt its faults (the
// runner already holds every channel to a full ack round-trip) and the two
// lossless runs to the amortisation claim: the client-update count is flat in the channel count because one update
// flushes every channel's provable work, so quadrupling the channels (and
// the packet volume with them) may cost at most ~25% more updates (slack
// for extra counterparty blocks carrying backlog at window edges), and
// updates per packet must fall.
func multichannelVerdict(rs []*Report) []Check {
	chaos, one, four := rs[0], rs[1], rs[2]
	u1, u4 := one.Links[0].ClientUpdates, four.Links[0].ClientUpdates
	perPacket1, perPacket4 := float64(u1)/float64(one.sent()), float64(u4)/float64(four.sent())
	return []Check{
		chaosBit(chaos),
		check(u1 > 0 && u4 <= u1+u1/4+1 && perPacket4 < perPacket1,
			"client updates: 1 channel %d (%.3f/packet), 4 channels %d (%.3f/packet)", u1, perPacket1, u4, perPacket4),
	}
}

// adaptiveVerdict compares the two diamond arms — post-degradation flows
// must migrate to the healthy arm and beat the static table's tail — and
// holds the relayer race to one loser per packet.
func adaptiveVerdict(rs []*Report) []Check {
	static, adaptive, race := rs[0], rs[1], rs[2]
	pre, post, late := make(map[string]int), make(map[string]int), 0
	for _, snd := range adaptive.Flows[0].sends {
		arm := strings.Split(snd.path, "-")[1]
		if snd.at < degradeAt {
			pre[arm]++
		} else if snd.at >= degradeAt+grace {
			post[arm]++
			late++
		}
	}
	migration := float64(post["b"]) / float64(max(late, 1))
	// Latency of the transfers submitted once the arm had degraded.
	tail := func(r *Report) (p50, p99 float64) {
		var lat []float64
		for _, snd := range r.Flows[0].sends {
			if snd.at >= degradeAt && snd.latency >= 0 {
				lat = append(lat, snd.latency)
			}
		}
		return stats.QuantileUnsorted(lat, 0.50), stats.QuantileUnsorted(lat, 0.99)
	}
	a50, a99 := tail(adaptive)
	s50, s99 := tail(static)
	recomputes := adaptive.tel.Counter("mesh.routing.recomputes")
	lost := race.Links[0].LostRace
	return []Check{
		check(len(pre) == 2, "pre-degradation arms: %v", pre),
		check(migration >= 0.9, "post-grace arms: %v (migration %.0f%%, want >= 90%%)", post, 100*migration),
		check(recomputes > 0, "view recomputes: %d", recomputes),
		check(a99 < s99, "post-degradation p99: adaptive %.1fs vs static %.1fs (p50 %.1fs vs %.1fs)", a99, s99, a50, s50),
		check(lost == race.sent(), "relayer race: %d packets, %d competitors, lost_race=%d", race.sent(), len(race.Fees[0].Payees), lost),
		feesPerPacket(race),
	}
}

// loadVerdict reports the admission counters. Under capacity nothing may
// be refused; under a declared overload admission control must shed, the
// host must account for every refusal the generator saw, and the system
// must keep delivering.
func loadVerdict(rs []*Report) []Check {
	r := rs[0]
	c := r.tel.Counter
	offered, admitted, rejected, shed := c("loadgen.offered"), c("loadgen.admitted"), c("loadgen.rejected"), c("loadgen.shed")
	delivered := r.Links[0].Delivered
	admission := offered > 0 && admitted == offered
	if r.Scenario.MidFlight {
		admission = offered >= 2*delivered && rejected+shed > 0 && c("host.mempool_rejected") >= rejected
	}
	senders := uint64(r.senders)
	return []Check{
		check(admission, "offered: %d at %.2f tx/s, admitted %d (rejected %d, shed %d); host mempool rejected %d, shed %d",
			offered, r.Scenario.Load.Rate, admitted, rejected, shed, c("host.mempool_rejected"), c("host.mempool_shed")),
		check(delivered > 0, "delivered: %d (sustained %.3f pkt/s)", delivered,
			float64(delivered)/(r.Scenario.Window+r.Scenario.Drain).Seconds()),
		check(senders > 0 && senders <= offered, "senders touched: %d of %d", senders, loadgen.Population),
	}
}
