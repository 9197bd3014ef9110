package relayer

import (
	"cmp"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/counterparty"
	"repro/internal/ibc"
	"repro/internal/netsim"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// fakeEnd is a chain end reduced to what the timeout scan reads and writes:
// which packets it still commits, its head, and its client of the peer. It
// counts how often its commitments are consulted and holds every timeout it
// is handed until the test settles it.
type fakeEnd struct {
	r    *Relayer
	side int

	committed map[traceID]bool // packets sent from here and not yet acked or timed out
	height    uint64
	now       time.Time
	cl        *fakeClient // this chain's client of the peer

	commitmentReads int
	submitted       *[][]string    // every batch of timeouts handed to either end of the link, in order
	pending         []*packetTrace // timeouts handed to this end and not yet settled
}

func (f *fakeEnd) peer() *fakeEnd { return f.r.ends[1-f.side].(*fakeEnd) }

func (f *fakeEnd) scan()                            {}
func (f *fakeEnd) head() (uint64, time.Time, error) { return f.height, f.now, nil }
func (f *fakeEnd) sendUpdate(height uint64, done func(uint64, error)) error {
	f.peer().cl.install(height, f.now)
	done(height, nil)
	return nil
}
func (f *fakeEnd) proveMembership(height uint64, _ string) ([]byte, uint64, error) {
	return []byte("present"), height, nil
}
func (f *fakeEnd) proveNonMembership(uint64, string) ([]byte, error) {
	return []byte("absent"), nil
}
func (f *fakeEnd) hasCommitment(p *ibc.Packet) bool {
	f.commitmentReads++
	return f.committed[idOf(f.side, p)]
}
func (f *fakeEnd) client() (ibc.Client, error)                     { return f.cl, nil }
func (f *fakeEnd) packetDelivered(*ibc.Packet) bool                { return false }
func (f *fakeEnd) inOrder() bool                                   { return false }
func (f *fakeEnd) updateClient(_ update, done func(uint64, error)) { done(0, nil) }
func (f *fakeEnd) recvPackets(*shard, []proven)                    {}
func (f *fakeEnd) ackPackets(*shard, []provenAck)                  {}
func (f *fakeEnd) timeoutPackets(s *shard, batch []provenTimeout) {
	var names []string
	for _, w := range batch {
		names = append(names, submission(s.index, f.side, w.tr.packet, uint64(w.provedAt)))
		f.pending = append(f.pending, w.tr)
	}
	*f.submitted = append(*f.submitted, names)
}
func (f *fakeEnd) sinkNames() (string, string) { return "delivered", "acked" }
func (f *fakeEnd) backlog() int                { return 0 }

// submission names a timeout of p handed to side over shard at provedAt.
func submission(shard, side int, p *ibc.Packet, provedAt uint64) string {
	return fmt.Sprintf("shard %d side %d %s@%d", shard, side, traceKey(p), provedAt)
}

// fakeClient is a light client that trusts whatever it is told.
type fakeClient struct {
	latest uint64
	times  map[uint64]time.Time
}

func (c *fakeClient) install(height uint64, t time.Time) {
	c.times[height] = t
	if height > c.latest {
		c.latest = height
	}
}
func (c *fakeClient) LatestHeight() ibc.Height       { return ibc.Height(c.latest) }
func (c *fakeClient) Update([]byte, time.Time) error { return nil }
func (c *fakeClient) VerifyMembership(ibc.Height, string, []byte, []byte) error {
	return nil
}
func (c *fakeClient) VerifyNonMembership(ibc.Height, string, []byte) error { return nil }
func (c *fakeClient) ConsensusTime(h ibc.Height) (time.Time, error) {
	t, ok := c.times[uint64(h)]
	if !ok {
		return time.Time{}, errors.New("fake client: no consensus state")
	}
	return t, nil
}
func (c *fakeClient) StateBytes() []byte { return nil }

// fakeLink is an engine over two fake ends, serving two channels.
type fakeLink struct {
	r         *Relayer
	sched     *sim.Scheduler
	tel       *telemetry.Telemetry
	ends      [2]*fakeEnd
	channels  []routing.Link
	submitted [][]string
	nextSeq   [2][2]uint64 // per side and channel
}

// fakeChannels name each channel differently on the two sides; twinChannels
// give both sides the same port and channel, as two handlers that each
// number their channels from channel-0 do.
var (
	fakeChannels = []routing.Link{
		{PortA: "bank", ChannelA: "channel-0", PortB: "bank", ChannelB: "channel-5"},
		{PortA: "transfer", ChannelA: "channel-1", PortB: "transfer", ChannelB: "channel-6"},
	}
	twinChannels = []routing.Link{
		{PortA: "transfer", ChannelA: "channel-0", PortB: "transfer", ChannelB: "channel-0"},
		{PortA: "transfer", ChannelA: "channel-1", PortB: "transfer", ChannelB: "channel-1"},
	}
)

// newFakeLink builds a real engine over channels (New wires shards, routes
// and counters over two throwaway cosmos chains) and swaps its ends for
// fakes.
func newFakeLink(tb testing.TB, channels []routing.Link) *fakeLink {
	tb.Helper()
	start := time.Date(2024, 9, 1, 0, 0, 0, 0, time.UTC)
	l := &fakeLink{sched: sim.NewScheduler(start), tel: telemetry.New(), channels: channels}
	chain := func(id string) EndConfig {
		cfg := counterparty.DefaultConfig()
		cfg.ChainID, cfg.NumValidators = id, 1
		c, err := counterparty.New(cfg, l.sched.Clock())
		if err != nil {
			tb.Fatal(err)
		}
		return EndConfig{Chain: c, Node: netsim.ChainNode(id)}
	}
	r, err := New(Config{A: chain("a"), B: chain("b"), Channels: channels, StrictRoutes: true},
		l.sched, netsim.New(l.sched, netsim.Config{}), WithTelemetry(l.tel))
	if err != nil {
		tb.Fatal(err)
	}
	l.r = r
	for side := range l.ends {
		l.ends[side] = &fakeEnd{
			r: r, side: side, submitted: &l.submitted,
			committed: map[traceID]bool{},
			height:    1, now: start, cl: &fakeClient{times: map[uint64]time.Time{}},
		}
		r.ends[side] = l.ends[side]
	}
	for side, e := range l.ends {
		e.cl.install(1, l.ends[1-side].now)
	}
	return l
}

// send commits a new packet on side's channel ch. Side 1 records it the way
// the guest end does, side 0 the way a cosmos end does (queuePacket).
func (l *fakeLink) send(side, ch int, timeout time.Duration) *ibc.Packet {
	l.nextSeq[side][ch]++
	link := l.channels[ch]
	p := &ibc.Packet{Sequence: l.nextSeq[side][ch], Data: []byte("x"),
		SourcePort: link.PortA, SourceChannel: link.ChannelA, DestPort: link.PortB, DestChannel: link.ChannelB}
	if side == 1 {
		p.SourcePort, p.SourceChannel, p.DestPort, p.DestChannel = link.PortB, link.ChannelB, link.PortA, link.ChannelA
	}
	if timeout > 0 {
		p.TimeoutTimestamp = l.sched.Now().Add(timeout)
	}
	l.ends[side].committed[idOf(side, p)] = true
	if side == 1 {
		l.r.track(1, p)
	} else {
		l.r.queuePacket(0, p, l.ends[0].height)
	}
	return p
}

func (l *fakeLink) shardOf(side int, p *ibc.Packet) *shard {
	return l.r.route(side, p.SourcePort, p.SourceChannel)
}

// deliver lands p (sent from side src) on the other end.
func (l *fakeLink) deliver(src int, p *ibc.Packet, duplicate bool) {
	l.r.delivered(1-src, l.shardOf(src, p), p, nil, 0, duplicate)
}

// advance moves virtual time and both heads forward.
func (l *fakeLink) advance(d time.Duration) {
	l.sched.RunFor(d)
	for _, e := range l.ends {
		e.height++
		e.now = l.sched.Now()
	}
}

func (l *fakeLink) counter(name string) uint64 {
	return l.tel.Metrics.Snapshot().Counters["relayer."+name]
}

// TestCheckTimeoutsMatchesFullWalk drives a link through one seeded
// schedule of sends, deliveries, lost races, acks, commitments a competing
// relayer cleared, client updates, and timeout submissions that land,
// are refused, stay pending, or are submitted in full and rejected in
// execution. Either side reports a timeout landed or not landed, as both
// ends do — a cosmos end from the message's result, the guest end from its
// state — so a landed one closes its trace at once and a rejected one is
// submitted again. Before each scan the schedule walks every packet it sent
// and, from its own record of each, predicts the timeouts the scan submits,
// their order and the batches they go in; after it, the relayer must hold a
// trace for exactly the packets it may still owe a timeout proof. It runs
// over channels named apart on the two sides and over channels both sides
// name alike.
func TestCheckTimeoutsMatchesFullWalk(t *testing.T) {
	var resubmitted [2][2]int // by channel naming, then sending side
	for seed := int64(1); seed <= 6; seed++ {
		t.Run(fmt.Sprint("seed ", seed), func(t *testing.T) { runScanSchedule(t, fakeChannels, seed, &resubmitted[0]) })
		t.Run(fmt.Sprint("twin ids seed ", seed), func(t *testing.T) { runScanSchedule(t, twinChannels, seed, &resubmitted[1]) })
	}
	for naming, sides := range resubmitted {
		if sides[0] == 0 || sides[1] == 0 {
			t.Errorf("channel naming %d: resubmitted %v timeouts rejected in execution (side 0, side 1), want some on each side", naming, sides)
		}
	}
}

// runScanSchedule runs the schedule seed draws over channels and adds to
// resubmitted, per sending side, how often the scan resubmitted a timeout
// rejected in execution.
func runScanSchedule(t *testing.T, channels []routing.Link, seed int64, resubmitted *[2]int) {
	l := newFakeLink(t, channels)
	rng := rand.New(rand.NewSource(seed))

	// sent is the schedule's record of one packet.
	type sent struct {
		src, ch   int
		p         *ibc.Packet
		delivered bool // landed, whoever delivered it
		cleared   bool // the source no longer commits it
		inFlight  bool // a timeout submission is pending
		rejected  bool // a timeout submission was rejected in execution
	}
	var packets []*sent
	byID := map[traceID]*sent{}
	pick := func(ok func(*sent) bool) *sent {
		var pool []*sent
		for _, s := range packets {
			if ok(s) {
				pool = append(pool, s)
			}
		}
		if len(pool) == 0 {
			return nil
		}
		return pool[rng.Intn(len(pool))]
	}
	undelivered := func(s *sent) bool { return !s.delivered && !s.cleared }
	// owed: the relayer may still owe s a timeout proof. A timeout that
	// landed cleared the commitment; one rejected in execution leaves the
	// packet owed, on either side.
	owed := func(s *sent) bool { return canExpire(s.p) && undelivered(s) }
	// expect predicts a scan: the owed packets not in flight, in (side,
	// port, channel, sequence) order, whose timeout has elapsed as seen
	// through the source's client of the destination — which the scan pulls
	// to the destination's head when that head is past a timeout the client
	// cannot prove yet. A side's run on one channel is one batch, cut where
	// the scan pulls a client.
	expect := func() (want [][]string, due []*sent) {
		var known [2]uint64
		var knownTime [2]time.Time
		for side, e := range l.ends {
			known[side], knownTime[side] = e.cl.latest, e.cl.times[e.cl.latest]
		}
		for _, s := range packets {
			if owed(s) && !s.inFlight {
				due = append(due, s)
			}
		}
		slices.SortFunc(due, func(a, b *sent) int {
			return cmp.Or(cmp.Compare(a.src, b.src), cmp.Compare(a.p.SourcePort, b.p.SourcePort),
				cmp.Compare(a.p.SourceChannel, b.p.SourceChannel), cmp.Compare(a.p.Sequence, b.p.Sequence))
		})
		n, cut := 0, true
		var last *sent
		for _, s := range due {
			if dst := l.ends[1-s.src]; !s.p.TimedOut(ibc.Height(known[s.src]), knownTime[s.src]) {
				if s.p.TimedOut(ibc.Height(dst.height), dst.now) {
					known[s.src], knownTime[s.src] = dst.height, dst.now
					cut = true
				}
				continue
			}
			if cut || s.src != last.src || s.ch != last.ch {
				want = append(want, nil)
			}
			want[len(want)-1] = append(want[len(want)-1], submission(s.ch, s.src, s.p, known[s.src]))
			cut, last = false, s
			due[n] = s
			n++
		}
		return want, due[:n]
	}
	var lostRaces, rivalClears, refused, landed, rejected, shared int

	for step := 0; step < 1500; step++ {
		switch op := rng.Intn(12); {
		case op < 3: // send, most with a timeout
			src, ch := rng.Intn(2), rng.Intn(2)
			timeout := time.Duration(rng.Intn(4)) * time.Minute
			s := &sent{src: src, ch: ch, p: l.send(src, ch, timeout)}
			packets = append(packets, s)
			byID[idOf(src, s.p)] = s
		case op < 5: // deliver; one in three is a race a rival won
			if s := pick(undelivered); s != nil {
				s.delivered = true
				duplicate := rng.Intn(3) == 0
				if duplicate {
					lostRaces++
				}
				l.deliver(s.src, s.p, duplicate)
			}
		case op < 6: // ack a delivered packet
			if s := pick(func(s *sent) bool { return s.delivered && !s.cleared }); s != nil {
				s.cleared = true
				delete(l.ends[s.src].committed, idOf(s.src, s.p))
				l.r.acked(s.src, l.shardOf(s.src, s.p), s.p)
			}
		case op < 7: // a competing relayer settles an undelivered packet
			if s := pick(undelivered); s != nil {
				s.cleared = true
				rivalClears++
				delete(l.ends[s.src].committed, idOf(s.src, s.p))
			}
		case op < 9: // time passes
			l.advance(time.Duration(1+rng.Intn(90)) * time.Second)
		case op < 10: // other traffic brings one side's client up to date
			side := rng.Intn(2)
			l.ends[side].cl.install(l.ends[1-side].height, l.ends[1-side].now)
		case op < 11: // settle the oldest pending timeout submission
			side, outcome := rng.Intn(2), rng.Intn(4)
			e := l.ends[side]
			if len(e.pending) == 0 || outcome == 3 {
				continue // nothing submitted, or it stays in flight
			}
			tr := e.pending[0]
			e.pending = e.pending[1:]
			s := byID[idOf(side, tr.packet)]
			s.inFlight = false
			switch outcome {
			case 0: // landed: the source refunds and clears the commitment
				landed++
				s.cleared = true
				delete(e.committed, idOf(side, tr.packet))
				l.r.timedOut(tr, true)
				if l.r.traces[idOf(side, tr.packet)] != nil {
					t.Fatalf("step %d: the trace of %s stays open after its timeout landed", step, traceKey(tr.packet))
				}
			case 1: // refused by the host: nothing executed
				refused++
				l.r.timedOut(tr, false)
			case 2: // submitted in full, rejected on chain
				rejected++
				s.rejected = true
				l.r.timedOut(tr, false)
			}
		default: // scan
			want, due := expect()
			before := len(l.submitted)
			l.r.CheckTimeouts()
			if got := l.submitted[before:]; !slices.EqualFunc(got, want, slices.Equal) {
				t.Fatalf("step %d: the scan submitted the batches\n%v\nthe schedule expects\n%v", step, got, want)
			}
			for _, b := range want {
				if len(b) > 1 {
					shared++
				}
			}
			for _, s := range due {
				if s.rejected {
					resubmitted[s.src]++
					s.rejected = false
				}
				s.inFlight = true
			}
			for id := range l.r.traces {
				if s := byID[id]; !owed(s) {
					t.Fatalf("step %d: trace %v left after the scan, but the packet is owed nothing (%+v)", step, id, *s)
				}
			}
			for _, s := range packets {
				if owed(s) && l.r.traces[idOf(s.src, s.p)] == nil {
					t.Fatalf("step %d: no trace for %s, which may still need a timeout", step, traceKey(s.p))
				}
			}
		}
	}

	submitted, handed := l.counter("timeouts_submitted"), 0
	for _, b := range l.submitted {
		handed += len(b)
	}
	if submitted != uint64(handed) {
		t.Errorf("timeouts_submitted = %d, the ends were handed %d", submitted, handed)
	}
	perChannel := [2]uint64{l.counter("ch." + string(channels[0].ChannelB) + ".timeouts"), l.counter("ch." + string(channels[1].ChannelB) + ".timeouts")}
	if perChannel[0]+perChannel[1] != submitted {
		t.Errorf("channel timeout counters %v do not add up to %d", perChannel, submitted)
	}
	// The schedule has to have exercised every case it claims to.
	if submitted < 20 || landed == 0 || refused == 0 || rejected == 0 || lostRaces == 0 || rivalClears == 0 || shared == 0 ||
		submitted <= uint64(landed) || l.counter("client_updates") == 0 || perChannel[0] == 0 || perChannel[1] == 0 {
		t.Errorf("thin schedule: %d timeouts submitted (%d landed, %d refused, %d rejected, %d batches of several), %d lost races, %d rival clears, %d client pulls",
			submitted, landed, refused, rejected, shared, lostRaces, rivalClears, l.counter("client_updates"))
	}
}

// TestCheckTimeoutsSkipsSettledTraces: the relayer keeps nothing for a
// packet once it is delivered, so the scan's cost follows the packets that
// can still expire. With 1 000 packets delivered and one outstanding, a
// scan consults the source's state once.
func TestCheckTimeoutsSkipsSettledTraces(t *testing.T) {
	l := newFakeLink(t, fakeChannels)
	for i := 0; i < 1000; i++ {
		l.deliver(1, l.send(1, 0, time.Hour), false)
	}
	l.send(1, 0, time.Hour)
	if len(l.r.traces) != 1 {
		t.Fatalf("%d traces after 1 000 deliveries, want the one outstanding packet's", len(l.r.traces))
	}
	src := l.ends[1]
	for scan := 1; scan <= 3; scan++ {
		l.advance(30 * time.Second)
		l.r.CheckTimeouts()
		if src.commitmentReads != scan {
			t.Fatalf("after %d scans the source's commitments were read %d times, want one read a scan", scan, src.commitmentReads)
		}
	}
	if len(l.submitted) != 0 {
		t.Fatalf("submitted %v before anything expired", l.submitted)
	}
	// It is still the scan that times the outstanding packet out.
	l.advance(2 * time.Hour)
	l.r.CheckTimeouts() // pulls the client past the timeout
	l.r.CheckTimeouts()
	if n := l.counter("timeouts_submitted"); len(l.submitted) != 1 || len(l.submitted[0]) != 1 || n != 1 {
		t.Fatalf("submitted %v (timeouts_submitted %d), want the one outstanding packet", l.submitted, n)
	}
}
