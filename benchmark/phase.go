package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/cryptoutil"
	"repro/internal/experiments"
	"repro/internal/fees"
	"repro/internal/guest"
	"repro/internal/host"
	"repro/internal/ibc"
	"repro/internal/loadgen"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/transfer"
)

// networkSeed wires every benchmark network. --seed changes only the
// generated inputs (arrival instants, senders, amounts, memo sizes,
// channel mix), never the wiring, so two seeds drive the same deployment.
const networkSeed = 1

const (
	loadDenom     = "load"
	loadReceivers = 64
	// runSlice is how far one net.Run call advances the virtual clock; the
	// traced pass records one span per slice.
	runSlice = 10 * time.Second
)

// unset marks a lifecycle instant that was never observed.
const unset = time.Duration(-1)

// transferRec is one generated transfer and the virtual instants (offsets
// from the phase start) at which the benchmark saw it progress. Latency is
// timed from due: on the virtual clock a send is injected exactly when it
// is due, so the generator is never late (lateness is reported anyway).
type transferRec struct {
	due    time.Duration
	flow   int
	amount uint64
	sender cryptoutil.PubKey // pair workloads; mesh flows have one fixed sender
	memo   string

	injectedAt time.Duration // when the source accepted it (unset: rejected)
	commitAt   time.Duration // source handler wrote the commitment
	recvAt     time.Duration // destination wrote a success acknowledgement
	ackAt      time.Duration // source handler cleared the commitment
}

// flowEnds names the chains a flow starts and ends on, as tap() knows them.
type flowEnds struct{ src, dst string }

// phaseRun is one phase's live state: the network, the generated
// transfers, and what the event-bus taps observed.
type phaseRun struct {
	ph        phaseSpec
	net       *core.Network
	start     time.Time // virtual clock at the first send
	flows     []flowEnds
	transfers []transferRec
	inject    func(t *transferRec) error
	// ledgers reads the token books once the run has stopped.
	ledgers func() []ledger

	duplicates []int // per flow: success acks seen for an already-delivered transfer
	errorAcks  []int // per flow: error acknowledgements on the destination
	maxLate    time.Duration

	storeDir string
}

// memoTag marks a transfer's memo with its index. '#' survives JSON
// escaping, so the tag is found at any forward-memo nesting depth without
// decoding the packet data inside the timed region.
func memoTag(id int) string { return "#" + strconv.Itoa(id) + "#" }

func tagOf(data []byte) (int, bool) {
	i := bytes.IndexByte(data, '#')
	if i < 0 {
		return 0, false
	}
	id, n := 0, 0
	for _, c := range data[i+1:] {
		if c == '#' {
			return id, n > 0
		}
		if c < '0' || c > '9' {
			return 0, false
		}
		id = id*10 + int(c-'0')
		n++
	}
	return 0, false
}

// tap subscribes to one chain's handler bus. The bus runs callbacks under
// its lock, so the tap only records.
func (pr *phaseRun) tap(chain string, bus *telemetry.Bus) {
	lookup := func(p *ibc.Packet) (*transferRec, flowEnds) {
		id, ok := tagOf(p.Data)
		if !ok || id >= len(pr.transfers) {
			return nil, flowEnds{}
		}
		t := &pr.transfers[id]
		return t, pr.flows[t.flow]
	}
	bus.Subscribe(func(ev telemetry.Event) {
		now := pr.net.Sched.Now().Sub(pr.start)
		switch e := ev.(type) {
		case ibc.EventSendPacket:
			if t, f := lookup(e.Packet); t != nil && f.src == chain && t.commitAt == unset {
				t.commitAt = now
			}
		case ibc.EventWriteAck:
			t, f := lookup(e.Packet)
			if t == nil || f.dst != chain {
				return
			}
			switch {
			case !transfer.IsSuccessAck(e.Ack):
				pr.errorAcks[t.flow]++
			case t.recvAt != unset:
				pr.duplicates[t.flow]++
			default:
				t.recvAt = now
			}
		case ibc.EventAcknowledgePacket:
			if t, f := lookup(e.Packet); t != nil && f.src == chain && t.ackAt == unset {
				t.ackAt = now
			}
		}
	})
}

// drawTransfers generates a phase's transfers from seed. Each flow is its
// own Poisson process conditioned on its count (sorted uniform instants
// over the window), so every seed offers every flow the same number of
// transfers and the flow mix adds no run-to-run variance. Per transfer the
// loadgen sampler's decorrelated streams give a Zipf-1.2 sender out of a
// million, an amount and a memo size; materialise runs once per distinct
// sender (nil for none).
func drawTransfers(ph phaseSpec, seed int64, flows int, materialise func(uint64, cryptoutil.PubKey)) []transferRec {
	n := ph.transfers()
	rng := rand.New(rand.NewSource(sim.DeriveSeed(seed, "benchmark/arrivals")))
	out := make([]transferRec, 0, n)
	for f := 0; f < flows; f++ {
		count := n / flows
		if f < n%flows {
			count++
		}
		for i := 0; i < count; i++ {
			out = append(out, transferRec{due: time.Duration(rng.Int63n(int64(ph.window))), flow: f})
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].due < out[j].due })

	sampler := loadgen.NewSampler(loadgen.Config{Seed: seed}, flows, materialise)
	for i := range out {
		ev := sampler.Next()
		t := &out[i]
		t.amount = ev.Amount
		t.sender = sampler.Accounts().Pub(ev.Account)
		t.memo = memoTag(i) + strings.Repeat("x", ev.MemoLen)
		t.injectedAt, t.commitAt, t.recvAt, t.ackAt = unset, unset, unset, unset
	}
	return out
}

func (pr *phaseRun) draw(seed int64, flows int, materialise func(uint64, cryptoutil.PubKey)) {
	pr.transfers = drawTransfers(pr.ph, seed, flows, materialise)
	pr.duplicates = make([]int, flows)
	pr.errorAcks = make([]int, flows)
}

// schedule chains the sends on the virtual clock: each injection arms the
// next, so the scheduler holds one generator event at a time, as an
// open-loop source would.
func (pr *phaseRun) schedule(rec *spanRecorder) {
	pr.start = pr.net.Sched.Now()
	var arm func(i int)
	arm = func(i int) {
		if i >= len(pr.transfers) {
			return
		}
		t := &pr.transfers[i]
		pr.net.Sched.At(pr.start.Add(t.due), func() {
			now := pr.net.Sched.Now().Sub(pr.start)
			if late := now - t.due; late > pr.maxLate {
				pr.maxLate = late
			}
			end := rec.begin("inject")
			err := pr.inject(t)
			end()
			if err == nil {
				t.injectedAt = now // a rejected send stays unset and counts as failed
			}
			arm(i + 1)
		})
	}
	arm(0)
}

func receiverOf(t *transferRec) string {
	return "load-recv-" + strconv.FormatUint(t.sender.Uint64()%loadReceivers, 10)
}

func sumReceivers(balance func(account string) uint64) uint64 {
	var sum uint64
	for r := 0; r < loadReceivers; r++ {
		sum += balance("load-recv-" + strconv.Itoa(r))
	}
	return sum
}

// newPairPhase builds the pair topology (2 channels, 8 healthy validators,
// PipelineDepth 3, lossless network) and the phase's transfers in the
// workload's direction.
func newPairPhase(w *workloadSpec, ph phaseSpec, seed int64, storeDir string) (*phaseRun, error) {
	params := guest.DefaultParams()
	params.PipelineDepth = 3
	cfg := core.Config{
		Seed:        networkSeed,
		Channels:    experiments.ChannelTopology(2, 0),
		GuestParams: params,
		Behaviours:  experiments.HealthyBehaviours(8),
	}
	if w.disk {
		cfg.Store = core.StoreSpec{Dir: storeDir, ColdRetention: 8}
	}
	net, err := core.NewNetwork(cfg)
	if err != nil {
		return nil, err
	}
	st, err := net.GuestState()
	if err != nil {
		return nil, err
	}
	pr := &phaseRun{ph: ph, net: net, storeDir: storeDir}
	outbound := w.scenario == pairOutbound
	for range net.Channels {
		if outbound {
			pr.flows = append(pr.flows, flowEnds{src: "guest", dst: "cp"})
		} else {
			pr.flows = append(pr.flows, flowEnds{src: "cp", dst: "guest"})
		}
	}

	var apps []*transfer.App // distinct source-side apps the senders hold tokens on
	seen := make(map[*transfer.App]bool)
	for _, rt := range net.Channels {
		app := rt.CPApp
		if outbound {
			app = rt.GuestApp
		}
		if !seen[app] {
			seen[app] = true
			apps = append(apps, app)
		}
	}
	pr.draw(seed, len(net.Channels), func(_ uint64, pub cryptoutil.PubKey) {
		if outbound {
			net.Host.Fund(pub, 10*host.LamportsPerSOL)
		}
		for _, app := range apps {
			app.Mint(pub.String(), loadDenom, 1_000_000_000)
		}
	})

	if outbound {
		pr.inject = func(t *transferRec) error {
			_, err := net.InjectTransfer(core.TransferReq{
				Channel:  t.flow,
				Sender:   t.sender,
				Receiver: receiverOf(t),
				Denom:    loadDenom,
				Amount:   t.amount,
				Memo:     t.memo,
				Timeout:  time.Hour,
			})
			return err
		}
	} else {
		pr.inject = func(t *transferRec) error {
			_, err := net.SendTransferFromCPOn(t.flow, t.sender.String(), receiverOf(t), loadDenom, t.amount, t.memo, 0)
			return err
		}
	}
	pr.ledgers = func() []ledger {
		out := make([]ledger, len(net.Channels))
		for i, rt := range net.Channels {
			l := pr.ledgerBase(i, fmt.Sprintf("ch%d", i))
			if outbound {
				voucher := transfer.VoucherPrefix(rt.Spec.CPPort, rt.CPChannel) + loadDenom
				l.hopEscrow = []uint64{rt.GuestApp.EscrowedAmount(rt.GuestChannel, loadDenom)}
				l.vouchers = sumReceivers(func(a string) uint64 { return rt.CPApp.Balance(a, voucher) })
			} else {
				voucher := transfer.VoucherPrefix(rt.Spec.GuestPort, rt.GuestChannel) + loadDenom
				l.hopEscrow = []uint64{rt.CPApp.EscrowedAmount(rt.CPChannel, loadDenom)}
				l.vouchers = sumReceivers(func(a string) uint64 { return rt.GuestApp.Balance(a, voucher) })
			}
			out[i] = l
		}
		return out
	}
	pr.tap("guest", st.Handler.Events())
	pr.tap("cp", net.CP.Handler().Events())
	return pr, nil
}

// meshFlows are the routed streams of the line topology: 3 hops, 2 hops,
// and 2 hops against the first two.
var meshFlows = []flowEnds{{"guest", "c"}, {"a", "c"}, {"c", "a"}}

// newMeshPhase builds the 4-chain line guest—a—b—c with static routing and
// the per-link chaos of experiments.RunMesh: 5% drop both ways and an
// asymmetric latency pair per link that is a function of the link's
// position, not of any RNG stream.
func newMeshPhase(ph phaseSpec, seed int64) (*phaseRun, error) {
	spec := experiments.LineMeshTopology()
	for i := range spec.Links {
		step := time.Duration(i) * 15 * time.Millisecond
		spec.Links[i].NetA = netsim.LinkConfig{
			Latency: sim.Uniform{Min: 20*time.Millisecond + step, Max: 90*time.Millisecond + 2*step},
			Drop:    0.05,
		}
		spec.Links[i].NetB = netsim.LinkConfig{
			Latency: sim.Uniform{Min: 60*time.Millisecond + step, Max: 200*time.Millisecond + 2*step},
			Drop:    0.05,
		}
	}
	net, err := core.NewNetwork(core.Config{
		Seed:       networkSeed,
		Mesh:       spec,
		Behaviours: experiments.HealthyBehaviours(8),
	})
	if err != nil {
		return nil, err
	}
	st, err := net.GuestState()
	if err != nil {
		return nil, err
	}
	pr := &phaseRun{ph: ph, net: net, flows: meshFlows}
	pr.draw(seed, len(meshFlows), nil)

	// Each flow moves its own denom from one sender to one receiver, so the
	// per-hop escrows telescope exactly with no cross-flow mixing.
	type flowState struct {
		denom, sender, receiver string
		user                    *core.User
		rs                      *core.RoutedSend
	}
	states := make([]*flowState, len(meshFlows))
	for i, f := range meshFlows {
		fs := &flowState{
			denom:    fmt.Sprintf("MESH%d", i),
			sender:   fmt.Sprintf("mesh-sender-%d", i),
			receiver: fmt.Sprintf("mesh-recv-%d", i),
		}
		if f.src == net.Mesh.GuestName {
			fs.user = net.NewUser(fs.sender, 10_000*host.LamportsPerSOL, fs.denom, 1<<40)
		} else {
			net.Mesh.Chain(f.src).Apps["transfer"].Mint(fs.sender, fs.denom, 1<<40)
		}
		states[i] = fs
	}
	pr.inject = func(t *transferRec) error {
		fs, f := states[t.flow], meshFlows[t.flow]
		var rs *core.RoutedSend
		var err error
		if fs.user != nil {
			rs, err = net.SendRoutedFromGuest(fs.user, f.dst, fs.receiver, fs.denom, t.amount, t.memo, fees.Policy{}, 0)
		} else {
			rs, err = net.SendRouted(f.src, f.dst, fs.sender, fs.receiver, fs.denom, t.amount, t.memo, 0)
		}
		if err == nil {
			fs.rs = rs
		}
		return err
	}
	pr.ledgers = func() []ledger {
		out := make([]ledger, len(meshFlows))
		for i, f := range meshFlows {
			fs := states[i]
			l := pr.ledgerBase(i, f.src+">"+f.dst)
			if fs.rs != nil {
				route, trace := fs.rs.Route, fs.rs.DenomTrace
				for hi, h := range route {
					app := net.Mesh.Chain(h.From).Apps[h.Port]
					l.hopEscrow = append(l.hopEscrow, app.EscrowedAmount(h.Channel, trace[hi]))
					if hi > 0 {
						l.stranded += app.Balance(net.Mesh.ForwardAccount, trace[hi])
					}
				}
				last := route[len(route)-1]
				l.vouchers = net.Mesh.Chain(f.dst).Apps[last.DestPort].Balance(fs.receiver, trace[len(trace)-1])
			}
			out[i] = l
		}
		return out
	}
	pr.tap(net.Mesh.GuestName, st.Handler.Events())
	for _, name := range net.Mesh.Order {
		if mc := net.Mesh.Chain(name); mc.CP != nil {
			pr.tap(name, mc.CP.Handler().Events())
		}
	}
	return pr, nil
}

// ledgerBase fills the part of a flow's ledger the taps observed.
func (pr *phaseRun) ledgerBase(flow int, name string) ledger {
	l := ledger{flow: name, duplicates: pr.duplicates[flow], errorAcks: pr.errorAcks[flow]}
	for i := range pr.transfers {
		t := &pr.transfers[i]
		if t.flow != flow || t.injectedAt == unset {
			continue
		}
		l.admitted++
		l.admittedTokens += t.amount
		if t.recvAt != unset {
			l.delivered++
			l.deliveredTokens += t.amount
		}
		if t.ackAt != unset {
			l.acked++
		}
	}
	return l
}
