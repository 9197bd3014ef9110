package relayer

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
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
	submitted       *[]string      // every timeout handed to either end of the link, in order
	pending         []*PacketTrace // timeouts handed to this end and not yet settled
}

func (f *fakeEnd) peer() *fakeEnd { return f.r.ends[1-f.side].(*fakeEnd) }

func (f *fakeEnd) scan()                            {}
func (f *fakeEnd) head() (uint64, time.Time, error) { return f.height, f.now, nil }
func (f *fakeEnd) sendUpdate(height uint64, done func(error)) error {
	f.peer().cl.install(height, f.now)
	done(nil)
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
func (f *fakeEnd) client() (ibc.Client, error)               { return f.cl, nil }
func (f *fakeEnd) packetDelivered(*ibc.Packet) bool          { return false }
func (f *fakeEnd) inOrder() bool                             { return false }
func (f *fakeEnd) updateClient(_ header, done func(error))   { done(nil) }
func (f *fakeEnd) recvPackets(*shard, []proven)              {}
func (f *fakeEnd) ackPacket(*shard, ackWork, []byte, uint64) {}
func (f *fakeEnd) timeoutPacket(s *shard, tr *PacketTrace, _ []byte, provedAt ibc.Height) {
	*f.submitted = append(*f.submitted, fmt.Sprintf("shard %d side %d %s@%d", s.index, f.side, traceKey(tr.Packet), provedAt))
	f.pending = append(f.pending, tr)
}
func (f *fakeEnd) sinkNames() (string, string) { return "delivered", "acked" }
func (f *fakeEnd) backlog() int                { return 0 }

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
func (c *fakeClient) Frozen() bool       { return false }
func (c *fakeClient) StateBytes() []byte { return nil }

// fakeLink is an engine over two fake ends, serving two channels.
type fakeLink struct {
	r         *Relayer
	sched     *sim.Scheduler
	tel       *telemetry.Telemetry
	ends      [2]*fakeEnd
	submitted []string
	nextSeq   [2][2]uint64 // per side and channel
}

var fakeChannels = []routing.Link{
	{PortA: "bank", ChannelA: "channel-0", PortB: "bank", ChannelB: "channel-5"},
	{PortA: "transfer", ChannelA: "channel-1", PortB: "transfer", ChannelB: "channel-6"},
}

// newFakeLink builds a real engine (New wires shards, routes and counters
// over two throwaway cosmos chains) and swaps its ends for fakes.
func newFakeLink(tb testing.TB) *fakeLink {
	tb.Helper()
	start := time.Date(2024, 9, 1, 0, 0, 0, 0, time.UTC)
	l := &fakeLink{sched: sim.NewScheduler(start), tel: telemetry.New()}
	chain := func(id string) EndConfig {
		cfg := counterparty.DefaultConfig()
		cfg.ChainID, cfg.NumValidators = id, 1
		c, err := counterparty.New(cfg, l.sched.Clock())
		if err != nil {
			tb.Fatal(err)
		}
		return EndConfig{Chain: c, Node: netsim.ChainNode(id)}
	}
	r, err := New(Config{A: chain("a"), B: chain("b"), Channels: fakeChannels, StrictRoutes: true},
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
// the guest end does (a kept trace, timeout or not), side 0 the way a cosmos
// end does (queuePacket: a trace only if it can expire).
func (l *fakeLink) send(side, ch int, timeout time.Duration) *ibc.Packet {
	l.nextSeq[side][ch]++
	link := fakeChannels[ch]
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
		l.r.track(&PacketTrace{Packet: p, SentAt: l.sched.Now(), src: 1, keep: true})
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

// checkTimeoutsFullWalk is the timeout scan as it was before the open-trace
// index: it asks the source about every trace the relayer holds. Kept as
// the reference the index is held to.
func checkTimeoutsFullWalk(r *Relayer) {
	var expired []*PacketTrace
	for id, tr := range r.Traces {
		p := tr.Packet
		switch {
		case !r.ends[tr.src].hasCommitment(p): // acked or already timed out
			if !tr.keep {
				delete(r.Traces, id)
			}
		case !tr.DeliveredAt.IsZero(): // delivered; ack pending
		case p.TimeoutHeight == 0 && p.TimeoutTimestamp.IsZero():
		case tr.inFlight:
		default:
			expired = append(expired, tr)
		}
	}
	r.submitTimeouts(expired)
}

// TestCheckTimeoutsMatchesFullWalk drives two identical links through one
// seeded schedule of sends, deliveries, lost races, acks, commitments a
// competing relayer cleared, client updates, and timeout submissions that
// land, dead-letter, stay pending, or land and are rejected in execution
// (which the relayer cannot see: it reads as success). One link scans through the open-trace
// index, the other walks every trace: each scan must submit the same
// timeouts in the same order.
func TestCheckTimeoutsMatchesFullWalk(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		t.Run(fmt.Sprint("seed ", seed), func(t *testing.T) { runScanSchedule(t, seed) })
	}
}

func runScanSchedule(t *testing.T, seed int64) {
	links := [2]*fakeLink{newFakeLink(t), newFakeLink(t)}
	scan := [2]func(*Relayer){(*Relayer).CheckTimeouts, checkTimeoutsFullWalk}
	rng := rand.New(rand.NewSource(seed))
	errDead := errors.New("dead letter")

	// The schedule tracks packets by (source side, packet) and applies every
	// step to both links.
	type sent struct {
		src       int
		p         [2]*ibc.Packet // one per link
		delivered bool
		cleared   bool
	}
	var packets []*sent
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
	var lostRaces, rivalClears, deadLetters, landed, rejected int

	for step := 0; step < 1500; step++ {
		switch op := rng.Intn(12); {
		case op < 3: // send, most with a timeout
			src, ch := rng.Intn(2), rng.Intn(2)
			timeout := time.Duration(rng.Intn(4)) * time.Minute
			s := &sent{src: src}
			for i, l := range links {
				s.p[i] = l.send(src, ch, timeout)
			}
			packets = append(packets, s)
		case op < 5: // deliver; one in three is a race a rival won
			if s := pick(undelivered); s != nil {
				s.delivered = true
				duplicate := rng.Intn(3) == 0
				if duplicate {
					lostRaces++
				}
				for i, l := range links {
					l.deliver(s.src, s.p[i], duplicate)
				}
			}
		case op < 6: // ack a delivered packet
			if s := pick(func(s *sent) bool { return s.delivered && !s.cleared }); s != nil {
				s.cleared = true
				for i, l := range links {
					delete(l.ends[s.src].committed, idOf(s.src, s.p[i]))
					l.r.acked(s.src, l.shardOf(s.src, s.p[i]), s.p[i], nil)
				}
			}
		case op < 7: // a competing relayer settles an undelivered packet
			if s := pick(undelivered); s != nil {
				s.cleared = true
				rivalClears++
				for i, l := range links {
					delete(l.ends[s.src].committed, idOf(s.src, s.p[i]))
				}
			}
		case op < 9: // time passes
			d := time.Duration(1+rng.Intn(90)) * time.Second
			for _, l := range links {
				l.advance(d)
			}
		case op < 10: // other traffic brings one side's client up to date
			side := rng.Intn(2)
			for _, l := range links {
				l.ends[side].cl.install(l.ends[1-side].height, l.ends[1-side].now)
			}
		case op < 11: // settle the oldest pending timeout submission
			side, outcome := rng.Intn(2), rng.Intn(4)
			if len(links[0].ends[side].pending) == 0 || outcome == 3 {
				continue // nothing submitted, or it stays in flight
			}
			for _, l := range links {
				e := l.ends[side]
				tr := e.pending[0]
				e.pending = e.pending[1:]
				switch outcome {
				case 0: // landed: the source refunds and clears the commitment
					delete(e.committed, idOf(side, tr.Packet))
					l.r.timedOut(tr, nil)
				case 1:
					l.r.timedOut(tr, errDead)
				case 2: // submitted in full, rejected on chain
					l.r.timedOut(tr, nil)
				}
			}
			switch outcome {
			case 0:
				landed++
				// The schedule must not deliver or ack it afterwards.
				for _, s := range packets {
					if !links[0].ends[s.src].committed[idOf(s.src, s.p[0])] {
						s.cleared = true
					}
				}
			case 1:
				deadLetters++
			case 2:
				rejected++
			}
		default: // scan
			for i, l := range links {
				scan[i](l.r)
			}
			if !reflect.DeepEqual(links[0].submitted, links[1].submitted) {
				t.Fatalf("step %d: index submitted\n%v\nfull walk submitted\n%v", step, links[0].submitted, links[1].submitted)
			}
		}
	}

	idx, ref := links[0], links[1]
	if idx.r.TimeoutsRun != ref.r.TimeoutsRun {
		t.Errorf("TimeoutsRun = %d with the index, %d with the full walk", idx.r.TimeoutsRun, ref.r.TimeoutsRun)
	}
	a, b := idx.tel.Metrics.Snapshot().Counters, ref.tel.Metrics.Snapshot().Counters
	for _, name := range []string{"relayer.timeouts_submitted", "relayer.client_updates", "relayer.lost_race",
		"relayer.ch.channel-5.timeouts", "relayer.ch.channel-6.timeouts"} {
		if a[name] != b[name] {
			t.Errorf("%s = %d with the index, %d with the full walk", name, a[name], b[name])
		}
	}
	for id, tr := range ref.r.Traces {
		if tr.keep && idx.r.Traces[id] == nil {
			t.Errorf("kept trace %v missing from the indexed link's Traces", id)
		}
	}
	// The index holds nothing the scan is done with.
	for id, tr := range idx.r.open {
		if !tr.DeliveredAt.IsZero() || !canExpire(tr.Packet) {
			t.Errorf("open trace %v is delivered or cannot expire", id)
		}
	}
	if len(idx.r.open) >= len(idx.r.Traces) {
		t.Errorf("index holds %d of %d traces: nothing left it", len(idx.r.open), len(idx.r.Traces))
	}
	// The schedule has to have exercised every case it claims to.
	if idx.r.TimeoutsRun < 20 || landed == 0 || deadLetters == 0 || rejected == 0 || lostRaces == 0 || rivalClears == 0 ||
		idx.r.TimeoutsRun <= landed || a["relayer.client_updates"] == 0 ||
		a["relayer.ch.channel-5.timeouts"] == 0 || a["relayer.ch.channel-6.timeouts"] == 0 {
		t.Errorf("thin schedule: %d timeouts submitted (%d landed, %d dead-lettered, %d rejected), %d lost races, %d rival clears, %d client pulls",
			idx.r.TimeoutsRun, landed, deadLetters, rejected, lostRaces, rivalClears, a["relayer.client_updates"])
	}
}

// TestCheckTimeoutsSkipsSettledTraces: the scan's cost follows the packets
// that can still expire. With 1 000 delivered traces kept for Fig. 2 and one
// packet outstanding, a scan consults the source's state once.
func TestCheckTimeoutsSkipsSettledTraces(t *testing.T) {
	l := newFakeLink(t)
	for i := 0; i < 1000; i++ {
		l.deliver(1, l.send(1, 0, time.Hour), false)
	}
	l.send(1, 0, time.Hour)
	if len(l.r.Traces) != 1001 {
		t.Fatalf("%d traces kept, want 1001", len(l.r.Traces))
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
	if len(l.submitted) != 1 || l.r.TimeoutsRun != 1 {
		t.Fatalf("submitted %v (TimeoutsRun %d), want the one outstanding packet", l.submitted, l.r.TimeoutsRun)
	}
}
