package netsim

import (
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/telemetry"
)

var t0 = time.Date(2024, 9, 1, 0, 0, 0, 0, time.UTC)

func newNet(t *testing.T, cfg Config) (*sim.Scheduler, *Network, *telemetry.Registry) {
	t.Helper()
	sched := sim.NewScheduler(t0)
	reg := telemetry.NewRegistry()
	return sched, New(sched, cfg, WithTelemetry(reg)), reg
}

func TestLosslessDeliversInline(t *testing.T) {
	sched, net, _ := newNet(t, Config{})
	var got []string
	ep := net.Node("a", nil, nil)
	net.Node("b", func(from NodeID, kind string, payload any) {
		got = append(got, kind+":"+payload.(string))
	}, func(from NodeID, kind string, payload any) (any, error) {
		return "pong", nil
	})
	ep.Send("b", "hello", "x")
	if len(got) != 1 || got[0] != "hello:x" {
		t.Fatalf("send not delivered inline: %v", got)
	}
	var resp any
	completed := ep.Call("b", "ping", nil, func(r any, err error) { resp = r })
	if !completed || resp != "pong" {
		t.Fatalf("call completed=%v resp=%v, want inline pong", completed, resp)
	}
	if n := sched.Pending(); n != 0 {
		t.Fatalf("lossless path scheduled %d events, want 0", n)
	}
}

func TestLatencyDefersDelivery(t *testing.T) {
	sched, net, _ := newNet(t, Config{Default: LinkConfig{Latency: sim.Constant(2 * time.Second)}})
	ep := net.Node("a", nil, nil)
	var at time.Time
	net.Node("b", func(NodeID, string, any) { at = sched.Now() }, nil)
	ep.Send("b", "k", nil)
	if !at.IsZero() {
		t.Fatal("latency link delivered inline")
	}
	sched.RunFor(5 * time.Second)
	if want := t0.Add(2 * time.Second); !at.Equal(want) {
		t.Fatalf("delivered at %v, want %v", at, want)
	}
}

func TestDropAndDuplicate(t *testing.T) {
	_, net, reg := newNet(t, Config{Default: LinkConfig{Drop: 1}})
	ep := net.Node("a", nil, nil)
	calls := 0
	net.Node("b", func(NodeID, string, any) { calls++ }, nil)
	ep.Send("b", "k", nil)
	if calls != 0 {
		t.Fatal("Drop=1 still delivered")
	}
	if got := reg.Counter("netsim.dropped").Value(); got != 1 {
		t.Fatalf("netsim.dropped = %d, want 1", got)
	}

	sched2, net2, reg2 := newNet(t, Config{Default: LinkConfig{Duplicate: 1}})
	ep2 := net2.Node("a", nil, nil)
	calls2 := 0
	net2.Node("b", func(NodeID, string, any) { calls2++ }, nil)
	ep2.Send("b", "k", nil)
	sched2.RunFor(time.Second)
	if calls2 != 2 {
		t.Fatalf("Duplicate=1 delivered %d times, want 2", calls2)
	}
	if got := reg2.Counter("netsim.duplicated").Value(); got != 1 {
		t.Fatalf("netsim.duplicated = %d, want 1", got)
	}
}

func TestReorderHoldsBack(t *testing.T) {
	// First message reordered (held 500ms), second delivered immediately:
	// arrival order inverts.
	sched, net, _ := newNet(t, Config{})
	net.SetLink("a", "b", LinkConfig{Reorder: 1})
	ep := net.Node("a", nil, nil)
	var order []string
	net.Node("b", func(_ NodeID, kind string, _ any) { order = append(order, kind) }, nil)
	ep.Send("b", "first", nil)
	net.SetLink("a", "b", LinkConfig{})
	ep.Send("b", "second", nil)
	sched.RunFor(2 * time.Second)
	if len(order) != 2 || order[0] != "second" || order[1] != "first" {
		t.Fatalf("order = %v, want [second first]", order)
	}
}

func TestPartitionWindow(t *testing.T) {
	sched, net, reg := newNet(t, Config{
		Partitions: []PartitionWindow{{A: []NodeID{"a"}, B: []NodeID{"b"}, From: time.Hour, Duration: time.Hour}},
	})
	ep := net.Node("a", nil, nil)
	calls := 0
	net.Node("b", func(NodeID, string, any) { calls++ }, nil)
	net.Node("c", func(NodeID, string, any) { calls++ }, nil)
	net.ScheduleFaults(t0)

	sched.RunFor(30 * time.Minute)
	ep.Send("b", "k", nil) // before the window
	sched.RunFor(60 * time.Minute)
	ep.Send("b", "k", nil) // inside the window: severed
	ep.Send("c", "k", nil) // other nodes unaffected
	sched.RunFor(60 * time.Minute)
	ep.Send("b", "k", nil) // healed
	if calls != 3 {
		t.Fatalf("delivered %d, want 3", calls)
	}
	if got := reg.Counter("netsim.dropped_partition").Value(); got != 1 {
		t.Fatalf("dropped_partition = %d, want 1", got)
	}
}

func TestCrashWindowEatsInFlight(t *testing.T) {
	sched, net, reg := newNet(t, Config{
		Default: LinkConfig{Latency: sim.Constant(10 * time.Second)},
		Crashes: []CrashWindow{{Node: "b", From: time.Minute, Duration: time.Minute}},
	})
	ep := net.Node("a", nil, nil)
	calls := 0
	net.Node("b", func(NodeID, string, any) { calls++ }, nil)
	net.ScheduleFaults(t0)

	// Sent 5s before the crash, in flight when it hits: lost on arrival.
	sched.RunFor(55 * time.Second)
	ep.Send("b", "k", nil)
	sched.RunFor(30 * time.Second)
	if calls != 0 {
		t.Fatal("message delivered into a crashed node")
	}
	if got := reg.Counter("netsim.dropped_crash").Value(); got != 1 {
		t.Fatalf("dropped_crash = %d, want 1", got)
	}
	// After heal, traffic flows again.
	sched.RunFor(time.Hour)
	ep.Send("b", "k", nil)
	sched.RunFor(time.Minute)
	if calls != 1 {
		t.Fatalf("post-heal delivered %d, want 1", calls)
	}
}

func TestReliableCallRetriesThroughLoss(t *testing.T) {
	sched, net, reg := newNet(t, Config{Seed: 3, Default: LinkConfig{Drop: 0.8, Latency: sim.Constant(100 * time.Millisecond)}})
	ep := net.Node("a", nil, nil)
	served := 0
	net.Node("b", nil, func(NodeID, string, any) (any, error) {
		served++
		return served, nil
	})
	retries := reg.Counter("test.retries")
	var resp any
	var respErr error
	done := false
	ep.ReliableCall("b", "k", nil,
		RetryPolicy{Timeout: time.Second, Backoff: 1.5, MaxTimeout: 10 * time.Second},
		RetryObserver{Retries: retries},
		func(r any, err error) { resp, respErr, done = r, err, true })
	sched.RunFor(6 * time.Hour)
	if !done || respErr != nil {
		t.Fatalf("reliable call done=%v err=%v", done, respErr)
	}
	if served == 0 {
		t.Fatal("handler never served")
	}
	if resp == nil {
		t.Fatal("no response")
	}
	if retries.Value() == 0 {
		t.Fatal("60% loss produced no retries")
	}
}

func TestDuplicatedCallServedTwiceCallbackOnce(t *testing.T) {
	sched, net, _ := newNet(t, Config{Default: LinkConfig{Duplicate: 1, Latency: sim.Constant(time.Millisecond)}})
	ep := net.Node("a", nil, nil)
	served := 0
	net.Node("b", nil, func(NodeID, string, any) (any, error) { served++; return nil, nil })
	fired := 0
	ep.ReliableCall("b", "k", nil, DefaultRetryPolicy(), RetryObserver{},
		func(any, error) { fired++ })
	sched.RunFor(time.Minute)
	if served < 2 {
		t.Fatalf("handler served %d, want >= 2 (duplicate delivery)", served)
	}
	if fired != 1 {
		t.Fatalf("callback fired %d times, want exactly 1", fired)
	}
}

func TestDeterministicUnderSeed(t *testing.T) {
	run := func() (delivered, dropped uint64) {
		sched, net, reg := newNet(t, Config{Seed: 11, Default: LinkConfig{
			Drop: 0.3, Duplicate: 0.1, Reorder: 0.1,
			Latency: sim.Uniform{Min: 10 * time.Millisecond, Max: 300 * time.Millisecond},
		}})
		ep := net.Node("a", nil, nil)
		net.Node("b", func(NodeID, string, any) {}, nil)
		for i := 0; i < 200; i++ {
			sched.RunFor(50 * time.Millisecond)
			ep.Send("b", "k", i)
		}
		sched.RunFor(time.Minute)
		return reg.Counter("netsim.delivered").Value(), reg.Counter("netsim.dropped").Value()
	}
	d1, x1 := run()
	d2, x2 := run()
	if d1 != d2 || x1 != x2 {
		t.Fatalf("same seed diverged: (%d,%d) vs (%d,%d)", d1, x1, d2, x2)
	}
	if d1 == 0 || x1 == 0 {
		t.Fatalf("expected both deliveries (%d) and drops (%d)", d1, x1)
	}
}

func TestFlagParsers(t *testing.T) {
	if from, dur, err := ParseWindow("36h+2h"); err != nil || from != 36*time.Hour || dur != 2*time.Hour {
		t.Fatalf("ParseWindow: %v %v %v", from, dur, err)
	}
	if _, _, err := ParseWindow("36h"); err == nil {
		t.Fatal("ParseWindow accepted missing duration")
	}
	cw, err := ParseCrash("v1:648h+9h55m")
	if err != nil || cw.Node != ValidatorNode(1) || cw.From != 648*time.Hour || cw.Duration != 9*time.Hour+55*time.Minute {
		t.Fatalf("ParseCrash: %+v %v", cw, err)
	}
	pw, err := ParsePartition("20h+2h")
	if err != nil || len(pw.A) != 1 || pw.A[0] != RelayerNode || pw.B[0] != CPNode {
		t.Fatalf("ParsePartition default groups: %+v %v", pw, err)
	}
	pw, err = ParsePartition("relayer,fisherman-0|cp,host:1h+30m")
	if err != nil || len(pw.A) != 2 || len(pw.B) != 2 || pw.From != time.Hour || pw.Duration != 30*time.Minute {
		t.Fatalf("ParsePartition groups: %+v %v", pw, err)
	}
	if _, err := ParseNode("bogus"); err == nil {
		t.Fatal("ParseNode accepted bogus node")
	}
}
