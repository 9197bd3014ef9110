package experiments

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/fees"
	"repro/internal/host"
	"repro/internal/ibc"
	"repro/internal/invariant"
	"repro/internal/loadgen"
	"repro/internal/middleware"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/transfer"
)

// Scenario is one acceptance run as data: a deployment, the traffic
// offered to it, the faults that hit it mid-run, and how long it runs. Run executes any Scenario the same way and holds it to the same
// ledger (internal/invariant); the registry (scenarios.go) holds the
// literals. (The 28-day closed-loop deployment is not one: see Run in
// deployment.go.)
type Scenario struct {
	Name string
	// Net is the deployment: topology, fleet, per-link faults, store, seed.
	// An empty fleet means HealthyBehaviours(8): only the §V fleet
	// incidents (outage, recover) name their own.
	Net   core.Config
	Flows []Flow
	// Packets is the number of bursts: burst j sends one transfer on every
	// flow at At(rng, j, Packets, Window), flow i moving Amount(rng, j)
	// tokens. rng is the stream sim.DeriveSeed(Net.Seed, Stream); each
	// burst draws its instant first, then one amount per flow in order.
	Packets int
	Stream  string
	At      func(rng *rand.Rand, j, n int, window time.Duration) time.Duration
	Amount  func(rng *rand.Rand, j int) uint64
	// Load, when set, offers an open-loop loadgen stream (seeded with
	// Net.Seed) for Window; each channel of the deployment is then one
	// guest→counterparty flow.
	Load *loadgen.Config
	// Actions run at their offsets from the start, after any send due at
	// the same instant.
	Actions []Action
	// Window is the span traffic is offered over; the run lasts
	// Window+Drain so in-flight transfers settle.
	Window, Drain time.Duration
	// MidFlight declares that the run ends with transfers still in flight
	// — the offered load exceeds capacity, or the run stops inside a stall:
	// rejected sends and an undelivered backlog are then expected, and only
	// the mid-flight ledger rules apply. Everywhere else a rejected send,
	// an undelivered transfer or an unsettled hop is a violation.
	MidFlight bool
}

// Flow is one stream of transfers between two chains of the deployment.
// Each flow must move its own denom or ride its own channel, so its
// escrows and vouchers are its alone.
type Flow struct {
	Src, Dst string
	// Sender and Receiver name the accounts; a guest-side sender's key
	// derives from its name.
	Sender, Receiver string
	Denom            string
	// Tag, when set, makes packet j carry the memo "<Tag>/<j>", by which
	// the destination tap times it end to end. An untagged flow carries no
	// memo and is counted but not timed.
	Tag string
	// Channels routes the flow explicitly over a pair deployment's one
	// link instead of asking the routing view: leg k rides channel
	// Channels[k], the first leg leaving the guest and each later leg
	// turning back (the middleware 2-hop is {0, 1}).
	Channels []int
}

// Action is one timed intervention on the running deployment.
type Action struct {
	At time.Duration
	Do func(net *core.Network) error
}

// Report is what Run observed.
type Report struct {
	Scenario Scenario
	Flows    []FlowReport
	Links    []LinkReport
	Fees     []invariant.FeeBook
	// Violations lists every breach of the ledger and fee-book rules plus,
	// unless the scenario declares MidFlight, every rejected send,
	// undelivered transfer and guest-side flow whose channels relayed back
	// other than one acknowledgement per transfer. Empty means the run
	// conserved.
	Violations []string

	tel     telemetry.Snapshot
	senders int // distinct accounts the loadgen stream materialised
}

// FlowReport is one flow's ledger (Acked is counted for guest-side flows
// only) plus what the runner timed.
type FlowReport struct {
	invariant.Ledger
	// Paths lists the distinct chain sequences ("guest-a-c") the flow's
	// transfers took, in order of first use.
	Paths []string
	// SendErrors counts transfers the source refused; FirstError is the
	// first refusal.
	SendErrors int
	FirstError string
	// P50 / P99 are end-to-end latencies in seconds of virtual time,
	// submission to the destination's acknowledgement write (a loadgen
	// flow: the packet tracer's send to recv). Zero when nothing was timed.
	P50, P99 float64

	sends []sendRecord
}

// sendRecord is one admitted transfer: when it was submitted, the path it
// was routed over, and its end-to-end latency (negative until delivered).
type sendRecord struct {
	at      time.Duration
	path    string
	latency float64
}

// LinkReport is one link's relayer counters, both directions summed, read
// from the link's metric namespace.
type LinkReport struct {
	ID                                         string
	ClientUpdates, Delivered, Acks, NetRetries uint64
	// LostRace counts deliveries a competing relayer had already made.
	LostRace uint64
	// HopP50Ms / HopP99Ms summarise scan-to-delivery latency on the link's
	// cosmos ends, in milliseconds (zero on a link that observed none).
	HopP50Ms, HopP99Ms float64
}

// arrival is the destination chain's end of a flow's final hop plus the
// denom the final packet carries: what the tap recognises the flow's
// packets by.
type arrival struct {
	chain   string
	port    ibc.PortID
	channel ibc.ChannelID
	denom   string
}

// landing is the flow expected at an arrival and the sequences seen there.
type landing struct {
	flow *flowRun
	seen map[uint64]bool
}

type flowRun struct {
	Flow
	user      *core.User // guest-side sender
	generated bool       // the loadgen stream sends on it, not the runner
	receivers []string
	report    FlowReport
	routes    [][]routing.Hop // distinct routes taken (an explicit route is routes[0])
	pending   map[string]int  // memo tag -> index into report.sends
}

type runner struct {
	net      *core.Network
	epoch    time.Time
	flows    []*flowRun
	arrivals map[arrival]*landing
}

// Run builds the scenario's deployment, funds its senders, schedules its
// traffic and actions, taps every chain's bus, runs the window and the
// drain, then reads every flow's ledger, every link's counters and every
// fee book.
func (s Scenario) Run() (*Report, error) {
	cfg := s.Net
	if len(cfg.Behaviours) == 0 {
		cfg.Behaviours = HealthyBehaviours(8)
	}
	net, err := core.NewNetwork(cfg)
	if err != nil {
		return nil, err
	}
	st, err := net.GuestState()
	if err != nil {
		return nil, err
	}
	r := &runner{net: net, epoch: net.Sched.Now(), arrivals: make(map[arrival]*landing)}
	for _, chain := range net.Mesh.Order {
		bus := st.Handler.Events()
		if cp := net.Mesh.Chain(chain).CP; cp != nil {
			bus = cp.Handler().Events()
		}
		r.tap(chain, bus)
	}
	for i, f := range s.Flows {
		if net.Mesh.Chain(f.Src) == nil || net.Mesh.Chain(f.Dst) == nil || len(f.Channels) > 0 && f.Src != net.Mesh.GuestName {
			return nil, fmt.Errorf("experiments: scenario %s flow %d (%s>%s): both chains must be in the deployment, and explicit channels must leave the guest", s.Name, i, f.Src, f.Dst)
		}
		r.open(f)
	}

	rng := rand.New(rand.NewSource(sim.DeriveSeed(cfg.Seed, s.Stream)))
	for j := 0; j < s.Packets; j++ {
		at := s.At(rng, j, s.Packets, s.Window)
		for _, fr := range r.flows {
			amount := s.Amount(rng, j)
			net.Sched.After(at, func() { r.send(fr, j, amount) })
		}
	}
	var gen *loadgen.Generator
	if s.Load != nil {
		lc := *s.Load
		lc.Seed = cfg.Seed
		gen = loadgen.New(net, lc)
		for i := range net.Channels {
			fr := r.open(Flow{Src: net.Mesh.GuestName, Denom: loadgen.Denom, Channels: []int{i}})
			fr.generated, fr.receivers = true, loadgen.Receivers()
		}
		gen.Run(s.Window)
	}
	var actionErr error
	for _, a := range s.Actions {
		net.Sched.After(a.At, func() {
			if err := a.Do(net); err != nil && actionErr == nil {
				actionErr = err
			}
		})
	}

	net.Run(s.Window + s.Drain)
	if actionErr != nil {
		return nil, fmt.Errorf("experiments: scenario %s action: %w", s.Name, actionErr)
	}
	net.ClaimMeshFees()

	rep := &Report{Scenario: s, tel: net.SnapshotTelemetry(), Fees: invariant.ReadFees(net)}
	for _, fr := range r.flows {
		fl := &fr.report
		var lat []float64
		if fr.generated {
			// The generator, not the runner, admitted this flow's transfers
			// and knows when: its ledger takes the generator's counts, its
			// latency the packet tracer's send→recv spans.
			ch := fr.Channels[0]
			fl.Admitted, fl.AdmittedTokens = int(gen.AdmittedCount(ch)), gen.AdmittedTokens(ch)
			rep.senders = gen.Accounts().Materialised()
			lat = tracedLatencies(rep.tel, fr.routes[0][0])
		}
		for _, snd := range fl.sends {
			if snd.latency >= 0 {
				lat = append(lat, snd.latency)
			}
		}
		fl.P50, fl.P99 = stats.QuantileUnsorted(lat, 0.50), stats.QuantileUnsorted(lat, 0.99)
		fl.Read(net, fr.routes, fr.Denom, fr.receivers)
		// The engine counts the acknowledgements it carried back to the
		// guest per guest channel: a guest-side flow's are those of every
		// channel its routes left through.
		for _, l := range net.Mesh.Links {
			for _, ch := range l.Channels {
				if slices.ContainsFunc(fr.routes, func(rt []routing.Hop) bool { return rt[0] == ch.HopFrom(net.Mesh.GuestName) }) {
					fl.Acked += int(rep.tel.Counter(l.MetricsNS + ".ch." + string(ch.ChannelB) + ".acks_to_guest"))
				}
			}
		}
		rep.Violations = append(rep.Violations, fl.Violations(!s.MidFlight)...)
		if !s.MidFlight && fl.SendErrors > 0 {
			rep.Violations = append(rep.Violations, fmt.Sprintf("%s: %d sends refused, first: %s", fl.Flow, fl.SendErrors, fl.FirstError))
		}
		if !s.MidFlight && fl.Delivered != fl.Admitted {
			rep.Violations = append(rep.Violations, fmt.Sprintf("%s: delivered %d of %d admitted", fl.Flow, fl.Delivered, fl.Admitted))
		}
		if !s.MidFlight && fr.Src == net.Mesh.GuestName && fl.Acked != fl.Admitted {
			rep.Violations = append(rep.Violations, fmt.Sprintf("%s: acked %d of %d admitted", fl.Flow, fl.Acked, fl.Admitted))
		}
		rep.Flows = append(rep.Flows, *fl)
	}
	for _, l := range net.Mesh.Links {
		c := func(name string) uint64 { return rep.tel.Counter(l.MetricsNS + "." + name) }
		hop := rep.tel.HistogramSamples(l.MetricsNS + ".hop.latency_s")
		rep.Links = append(rep.Links, LinkReport{
			ID: l.ID, ClientUpdates: c("client_updates"), Delivered: c("delivered"), Acks: c("acks"),
			NetRetries: c("net_retries"), LostRace: c("lost_race"),
			HopP50Ms: 1000 * stats.QuantileUnsorted(hop, 0.50), HopP99Ms: 1000 * stats.QuantileUnsorted(hop, 0.99),
		})
	}
	for _, b := range rep.Fees {
		rep.Violations = append(rep.Violations, b.Violations()...)
	}
	return rep, nil
}

// open resolves a flow's explicit route and — unless a generator will send
// on it — funds its sender on every app of the source chain (a route may
// leave through any of them), in the flow's denom and in the fee denom of
// any port that escrows ICS-29 fees.
func (r *runner) open(f Flow) *flowRun {
	mesh := r.net.Mesh
	fr := &flowRun{Flow: f, receivers: []string{f.Receiver}, pending: make(map[string]int)}
	fr.report.Flow = f.Src + ">" + f.Dst
	if len(f.Channels) > 0 {
		var route []routing.Hop
		at := f.Src
		for _, ci := range f.Channels {
			route = append(route, mesh.Links[0].Channels[ci].HopFrom(at))
			at = route[len(route)-1].To
		}
		fr.report.Flow = f.Src + ">" + at + fmt.Sprint(f.Channels)
		fr.took(r, route)
	}
	if f.Sender != "" {
		account := f.Sender
		if f.Src == mesh.GuestName {
			fr.user = r.net.NewUser(f.Sender, 10_000*host.LamportsPerSOL, f.Denom, 1<<40)
			account = fr.user.Key.Public().String()
		}
		src := mesh.Chain(f.Src)
		for port, app := range src.Apps {
			app.Mint(account, f.Denom, 1<<40)
			if fm, ok := src.Stacks[port].Middleware("fees").(*middleware.Fees); ok {
				app.Mint(account, fm.Schedule().Denom, 1<<30)
			}
		}
	}
	r.flows = append(r.flows, fr)
	return fr
}

// took records the route one of the flow's transfers was given and
// returns its path; a route seen for the first time registers where the
// tap will see the flow's packets land.
func (fr *flowRun) took(r *runner, route []routing.Hop) string {
	path := route[0].From
	for _, h := range route {
		path += "-" + h.To
	}
	for _, p := range fr.report.Paths {
		if p == path {
			return path
		}
	}
	fr.report.Paths = append(fr.report.Paths, path)
	fr.routes = append(fr.routes, route)
	last := route[len(route)-1]
	sent := routing.TraceDenom(route, fr.Denom)[len(route)-1]
	r.arrivals[arrival{last.To, last.DestPort, last.DestChannel, sent}] = &landing{fr, make(map[uint64]bool)}
	return path
}

// send submits packet j of a flow and books the outcome: an admitted
// transfer enters the ledger and the timing table, a refused one is
// counted with the first refusal kept.
func (r *runner) send(fr *flowRun, j int, amount uint64) {
	memo := ""
	if fr.Tag != "" {
		memo = fmt.Sprintf("%s/%d", fr.Tag, j)
	}
	net, fl := r.net, &fr.report
	var rs *core.RoutedSend
	var err error
	switch {
	case len(fr.Channels) > 0:
		rs = &core.RoutedSend{Route: fr.routes[0]}
		plan := routing.Plan(rs.Route, fr.Receiver, net.Mesh.ForwardAccount, memo)
		_, err = net.SendTransferFromGuestOn(fr.Channels[0], fr.user, plan.Receiver, fr.Denom, amount, plan.Memo, fees.BundlePolicy, 0)
	case fr.user != nil:
		rs, err = net.SendRoutedFromGuest(fr.user, fr.Dst, fr.Receiver, fr.Denom, amount, memo, fees.BundlePolicy, 0)
	default:
		rs, err = net.SendRouted(fr.Src, fr.Dst, fr.Sender, fr.Receiver, fr.Denom, amount, memo, 0)
	}
	if err != nil {
		if fl.SendErrors++; fl.FirstError == "" {
			fl.FirstError = err.Error()
		}
		return
	}
	fl.Admitted++
	fl.AdmittedTokens += amount
	if memo != "" {
		fr.pending[memo] = len(fl.sends)
	}
	fl.sends = append(fl.sends, sendRecord{at: net.Sched.Now().Sub(r.epoch), path: fr.took(r, rs.Route), latency: -1})
}

// tap subscribes to a chain's handler bus: a success acknowledgement
// written for a packet landing where a flow is expected is a delivery, a
// second one for the same sequence a duplicate, an error acknowledgement
// an error. The bus runs callbacks under its lock, so the tap only
// records.
func (r *runner) tap(chain string, bus *telemetry.Bus) {
	bus.Subscribe(func(ev telemetry.Event) {
		e, ok := ev.(ibc.EventWriteAck)
		if !ok {
			return
		}
		d, err := transfer.UnmarshalPacketData(e.Packet.Data)
		if err != nil {
			return
		}
		at := r.arrivals[arrival{chain, e.Packet.DestPort, e.Packet.DestChannel, d.Denom}]
		if at == nil {
			return
		}
		fl := &at.flow.report
		switch {
		case !transfer.IsSuccessAck(e.Ack):
			fl.ErrorAcks++
		case at.seen[e.Packet.Sequence]:
			fl.Duplicates++
		default:
			at.seen[e.Packet.Sequence] = true
			fl.Delivered++
			fl.DeliveredTokens += d.Amount
			if i, ok := at.flow.pending[d.Memo]; ok {
				fl.sends[i].latency = (r.net.Sched.Now().Sub(r.epoch) - fl.sends[i].at).Seconds()
				delete(at.flow.pending, d.Memo)
			}
		}
	})
}

// tracedLatencies returns the send→recv latency, in seconds, of every
// traced packet that left through hop's channel and was delivered.
func tracedLatencies(snap telemetry.Snapshot, hop routing.Hop) []float64 {
	prefix := string(hop.Port) + "/" + string(hop.Channel) + "/"
	var out []float64
	for _, tr := range snap.Traces {
		send, sent := tr.Span(telemetry.StageSend)
		recv, ok := tr.Span(telemetry.StageRecv)
		if sent && ok && strings.HasPrefix(tr.Key, prefix) && recv.At.After(send.At) {
			out = append(out, recv.At.Sub(send.At).Seconds())
		}
	}
	return out
}
