package routing

import (
	"errors"
	"reflect"
	"testing"
)

// diamondLinks is guest-a, guest-b, a-c, b-c: two equal-length arms
// guest->c.
// pathsOf is the multi-path set Route and RouteFlow pick from for
// src->dst, cheapest first (none for an unknown or same-chain pair).
func pathsOf(v *View, src, dst string) [][]Hop {
	set, _ := v.routeSet(src, dst)
	out := make([][]Hop, len(set))
	for i, p := range set {
		out[i] = p.hops
	}
	return out
}

func diamondLinks() []Link {
	return []Link{
		{A: "guest", B: "a", PortA: "transfer", PortB: "transfer", ChannelA: "channel-0", ChannelB: "channel-0"},
		{A: "guest", B: "b", PortA: "transfer", PortB: "transfer", ChannelA: "channel-1", ChannelB: "channel-0"},
		{A: "a", B: "c", PortA: "transfer", PortB: "transfer", ChannelA: "channel-1", ChannelB: "channel-0"},
		{A: "b", B: "c", PortA: "transfer", PortB: "transfer", ChannelA: "channel-1", ChannelB: "channel-1"},
	}
}

func TestRouteDisconnectedGraphTypedError(t *testing.T) {
	// Two components: {guest, a} and {x, y}. Building the table must not
	// panic, and cross-component routes must report ErrNoRoute.
	links := []Link{
		{A: "guest", B: "a", PortA: "transfer", PortB: "transfer", ChannelA: "channel-0", ChannelB: "channel-0"},
		{A: "x", B: "y", PortA: "transfer", PortB: "transfer", ChannelA: "channel-0", ChannelB: "channel-0"},
	}
	tab := NewTable(links)
	if _, err := tab.Route("guest", "y"); !errors.Is(err, ErrNoRoute) {
		t.Fatalf("table cross-component err = %v, want ErrNoRoute", err)
	}
	if _, err := tab.Route("guest", "guest"); !errors.Is(err, ErrSameChain) {
		t.Fatalf("table self-route err = %v, want ErrSameChain", err)
	}
	if _, err := tab.Route("guest", "nowhere"); !errors.Is(err, ErrNoRoute) {
		t.Fatalf("table unknown-chain err = %v, want ErrNoRoute", err)
	}
	v := NewView(links, CostModel{}, 7)
	if _, err := v.Route("guest", "y"); !errors.Is(err, ErrNoRoute) {
		t.Fatalf("view cross-component err = %v, want ErrNoRoute", err)
	}
	if _, err := v.RouteFlow("a", "x", "alice", 3); !errors.Is(err, ErrNoRoute) {
		t.Fatalf("view flow cross-component err = %v, want ErrNoRoute", err)
	}
	if _, err := v.Route("x", "x"); !errors.Is(err, ErrSameChain) {
		t.Fatalf("view self-route err = %v, want ErrSameChain", err)
	}
	// Within a component both still route.
	if _, err := v.Route("guest", "a"); err != nil {
		t.Fatalf("in-component route: %v", err)
	}
}

func TestEqualCostTieBreakPermutationInvariance(t *testing.T) {
	links := diamondLinks()
	// Permute order and flip every link's orientation: the table, the
	// view's path sets, and every ECMP pick must be identical.
	flipped := make([]Link, 0, len(links))
	for i := len(links) - 1; i >= 0; i-- {
		l := links[i]
		flipped = append(flipped, Link{
			A: l.B, B: l.A,
			PortA: l.PortB, PortB: l.PortA,
			ChannelA: l.ChannelB, ChannelB: l.ChannelA,
		})
	}
	t1, t2 := NewTable(links), NewTable(flipped)
	v1, v2 := NewView(links, CostModel{}, 42), NewView(flipped, CostModel{}, 42)
	for _, src := range t1.chains {
		for _, dst := range t1.chains {
			if src == dst {
				continue
			}
			r1, _ := t1.Route(src, dst)
			r2, _ := t2.Route(src, dst)
			if !reflect.DeepEqual(r1, r2) {
				t.Fatalf("table route %s->%s differs under permutation", src, dst)
			}
			if !reflect.DeepEqual(pathsOf(v1, src, dst), pathsOf(v2, src, dst)) {
				t.Fatalf("view paths %s->%s differ under permutation:\n%+v\n%+v",
					src, dst, pathsOf(v1, src, dst), pathsOf(v2, src, dst))
			}
			b1, _ := v1.Route(src, dst)
			b2, _ := v2.Route(src, dst)
			if !reflect.DeepEqual(b1, b2) {
				t.Fatalf("view route %s->%s differs under permutation", src, dst)
			}
			for seq := uint64(0); seq < 16; seq++ {
				f1, _ := v1.RouteFlow(src, dst, "alice", seq)
				f2, _ := v2.RouteFlow(src, dst, "alice", seq)
				if !reflect.DeepEqual(f1, f2) {
					t.Fatalf("ECMP pick %s->%s seq %d differs under permutation", src, dst, seq)
				}
			}
		}
	}
}

func TestViewECMPSplitsEqualCostArms(t *testing.T) {
	v := NewView(diamondLinks(), CostModel{}, 1)
	paths := pathsOf(v, "guest", "c")
	if len(paths) != 2 {
		t.Fatalf("equal-cost set size %d, want 2 (both diamond arms)", len(paths))
	}
	// Flows must spread across both arms, and the split must be a pure
	// function of (seed, sender, sequence).
	arm := map[string]int{}
	for seq := uint64(1); seq <= 64; seq++ {
		hops, err := v.RouteFlow("guest", "c", "alice", seq)
		if err != nil {
			t.Fatal(err)
		}
		arm[hops[0].To]++
		again, _ := v.RouteFlow("guest", "c", "alice", seq)
		if !reflect.DeepEqual(hops, again) {
			t.Fatalf("seq %d not sticky", seq)
		}
	}
	if arm["a"] == 0 || arm["b"] == 0 {
		t.Fatalf("ECMP did not split: %v", arm)
	}
	// Exact ties weight evenly: neither arm takes more than ~3/4.
	if arm["a"] > 48 || arm["b"] > 48 {
		t.Fatalf("ECMP split badly skewed: %v", arm)
	}
	// A different sender hashes independently but still deterministically.
	h1, _ := v.RouteFlow("guest", "c", "bob", 1)
	h2, _ := v.RouteFlow("guest", "c", "bob", 1)
	if !reflect.DeepEqual(h1, h2) {
		t.Fatal("same-flow pick not deterministic")
	}
}

func TestViewHysteresisGatesRecompute(t *testing.T) {
	v := NewView(diamondLinks(), CostModel{Hysteresis: 0.5}, 1)
	// Small drift on the a-c arm: below the 50% hysteresis, no rebuild.
	v.Observe(LinkID("a", "c"), LinkHealth{Latency: 0.3})
	if v.Refresh() {
		t.Fatal("refresh rebuilt below the hysteresis threshold")
	}
	// Big degradation: cost 1 -> 4, rebuild fires and guest->c abandons
	// the a arm entirely (4+1 is far outside the ECMP spread of 2).
	v.Observe(LinkID("a", "c"), LinkHealth{Latency: 3})
	if !v.Refresh() {
		t.Fatal("refresh did not rebuild after degradation")
	}
	paths := pathsOf(v, "guest", "c")
	if len(paths) != 1 || paths[0][0].To != "b" {
		t.Fatalf("post-degradation paths %+v, want only via b", paths)
	}
	for seq := uint64(0); seq < 8; seq++ {
		hops, err := v.RouteFlow("guest", "c", "alice", seq)
		if err != nil {
			t.Fatal(err)
		}
		if hops[0].To != "b" {
			t.Fatalf("flow seq %d still routed via degraded arm", seq)
		}
	}
	// Health restored: costs fall back, rebuild fires again and both arms
	// return to the equal-cost set.
	v.Observe(LinkID("a", "c"), LinkHealth{Latency: 0})
	if !v.Refresh() {
		t.Fatal("refresh did not rebuild after recovery")
	}
	if got := len(pathsOf(v, "guest", "c")); got != 2 {
		t.Fatalf("post-recovery path set size %d, want 2", got)
	}
}

func TestViewScoresBacklog(t *testing.T) {
	v := NewView(diamondLinks(), CostModel{}, 1)
	id := LinkID("b", "c")
	base := v.Cost(id)
	// A large backlog raises the link's cost.
	v.Observe(id, LinkHealth{Backlog: 500})
	v.Refresh()
	withBacklog := v.Cost(id)
	if withBacklog <= base {
		t.Fatalf("backlog did not raise cost: %v <= %v", withBacklog, base)
	}
	// A drained backlog brings the cost back to base.
	v.Observe(id, LinkHealth{})
	v.Refresh()
	if got := v.Cost(id); got != base {
		t.Fatalf("cost did not return to base after the backlog drained: %v (base %v)", got, base)
	}
}

// TestViewDefaultCostsGolden pins DefaultCostModel by what it does: the
// diamond's link costs, guest->c path set and the arms sixteen flows take
// after each step of a fixed health script — base cost, the latency and
// backlog terms, the hysteresis gate (steps 0 and 4 move no table) and the
// equal-cost spread (step 3 readmits the a arm at 2.05 against 2.02),
// value for value.
func TestViewDefaultCostsGolden(t *testing.T) {
	type obs struct {
		id string
		h  LinkHealth
	}
	steps := []struct {
		observe []obs
		rebuilt bool
		costs   [4]float64 // a-c, a-guest, b-c, b-guest
		arms    string     // first hops of the path set, cheapest first
		flows   string     // first hop of alice's flows 0..15
	}{
		{[]obs{{"a-c", LinkHealth{Latency: 0.1, Backlog: 5}}},
			false, [4]float64{1, 1, 1, 1}, "ab", "aababbaababbaaba"},
		{[]obs{{"a-c", LinkHealth{Latency: 0.1, Backlog: 40}}, {"b-guest", LinkHealth{Latency: 0.02}}},
			true, [4]float64{1.9000000000000001, 1, 1, 1.02}, "b", "bbbbbbbbbbbbbbbb"},
		{[]obs{{"a-c", LinkHealth{Latency: 2.5, Backlog: 40}}, {"b-c", LinkHealth{Latency: 0.04, Backlog: 2}}},
			true, [4]float64{4.3, 1, 1.08, 1.02}, "b", "bbbbbbbbbbbbbbbb"},
		{[]obs{{"a-c", LinkHealth{Latency: 0.05}}, {"b-c", LinkHealth{}}},
			true, [4]float64{1.05, 1, 1, 1.02}, "ba", "bbabaabbabaabbab"},
		{[]obs{{"a-c", LinkHealth{}}, {"b-c", LinkHealth{}}},
			false, [4]float64{1.05, 1, 1, 1.02}, "ba", "bbabaabbabaabbab"},
	}
	v := NewView(diamondLinks(), DefaultCostModel(), 7)
	rebuilds := 0
	for i, st := range steps {
		for _, o := range st.observe {
			v.Observe(o.id, o.h)
		}
		got := v.Refresh()
		if got != st.rebuilt {
			t.Fatalf("step %d: rebuilt = %v, want %v", i, got, st.rebuilt)
		}
		if got {
			rebuilds++
		}
		for j, id := range []string{"a-c", "a-guest", "b-c", "b-guest"} {
			if got := v.Cost(id); got != st.costs[j] {
				t.Errorf("step %d: cost(%s) = %v, want %v", i, id, got, st.costs[j])
			}
		}
		arms, flows := "", ""
		for _, p := range pathsOf(v, "guest", "c") {
			arms += p[0].To
		}
		for seq := uint64(0); seq < 16; seq++ {
			hops, err := v.RouteFlow("guest", "c", "alice", seq)
			if err != nil {
				t.Fatal(err)
			}
			flows += hops[0].To
		}
		if arms != st.arms || flows != st.flows {
			t.Errorf("step %d: path set %q, flows %q; want %q, %q", i, arms, flows, st.arms, st.flows)
		}
	}
	if rebuilds != 3 {
		t.Errorf("rebuilds = %d, want 3", rebuilds)
	}
}
