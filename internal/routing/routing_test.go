package routing

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/ibc"
	"repro/internal/middleware"
)

// lineLinks is G-A-B-C with per-side ports/channels as bootstrap names
// them.
func lineLinks() []Link {
	return []Link{
		{A: "guest", B: "a", PortA: "transfer", PortB: "transfer", ChannelA: "channel-0", ChannelB: "channel-0"},
		{A: "a", B: "b", PortA: "transfer", PortB: "transfer", ChannelA: "channel-1", ChannelB: "channel-0"},
		{A: "b", B: "c", PortA: "transfer", PortB: "transfer", ChannelA: "channel-1", ChannelB: "channel-0"},
	}
}

func TestRouteLine(t *testing.T) {
	tab := NewTable(lineLinks())
	hops, err := tab.Route("guest", "c")
	if err != nil {
		t.Fatal(err)
	}
	if len(hops) != 3 {
		t.Fatalf("hops = %d, want 3", len(hops))
	}
	wantFrom := []string{"guest", "a", "b"}
	for i, h := range hops {
		if h.From != wantFrom[i] {
			t.Fatalf("hop %d from %q, want %q", i, h.From, wantFrom[i])
		}
	}
	if hops[1].Channel != "channel-1" || hops[1].DestChannel != "channel-0" {
		t.Fatalf("hop 1 channels %s/%s", hops[1].Channel, hops[1].DestChannel)
	}
	// Reverse route mirrors the hops.
	back, err := tab.Route("c", "guest")
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 3 || back[0].From != "c" || back[2].To != "guest" {
		t.Fatalf("reverse route %+v", back)
	}
}

func TestRouteDeterministicUnderPermutation(t *testing.T) {
	links := lineLinks()
	// Permute order and flip every link's orientation.
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
	for _, src := range t1.chains {
		for _, dst := range t1.chains {
			if src == dst {
				continue
			}
			r1, err1 := t1.Route(src, dst)
			r2, err2 := t2.Route(src, dst)
			if (err1 == nil) != (err2 == nil) || !reflect.DeepEqual(r1, r2) {
				t.Fatalf("route %s->%s differs under permutation:\n%+v\n%+v", src, dst, r1, r2)
			}
		}
	}
}

func TestRouteDiamondPrefersCanonicalTie(t *testing.T) {
	// guest-a, guest-b, a-c, b-c: two equal-length guest->c paths; the
	// canonical tie-break picks via "a".
	links := []Link{
		{A: "guest", B: "a", PortA: "transfer", PortB: "transfer", ChannelA: "channel-0", ChannelB: "channel-0"},
		{A: "guest", B: "b", PortA: "transfer", PortB: "transfer", ChannelA: "channel-1", ChannelB: "channel-0"},
		{A: "a", B: "c", PortA: "transfer", PortB: "transfer", ChannelA: "channel-1", ChannelB: "channel-0"},
		{A: "b", B: "c", PortA: "transfer", PortB: "transfer", ChannelA: "channel-1", ChannelB: "channel-1"},
	}
	tab := NewTable(links)
	hops, err := tab.Route("guest", "c")
	if err != nil {
		t.Fatal(err)
	}
	if len(hops) != 2 || hops[0].To != "a" {
		t.Fatalf("diamond route %+v, want guest->a->c", hops)
	}
	if _, err := tab.Route("guest", "missing"); err == nil {
		t.Fatal("expected error for unknown destination")
	}
	if _, err := tab.Route("guest", "guest"); err == nil {
		t.Fatal("expected error for self route")
	}
}

func TestPlanNestsForwardMemos(t *testing.T) {
	tab := NewTable(lineLinks())
	hops, _ := tab.Route("guest", "c")
	plan := Plan(hops, "carol", "forward-module", "hello")
	if plan.Receiver != "forward-module" {
		t.Fatalf("first-hop receiver %q, want module account", plan.Receiver)
	}
	// Outer layer: chain a forwards over its a-b end (channel-1) to the
	// module account on b.
	outer := middleware.ParseForwardMemo(plan.Memo)
	if outer == nil {
		t.Fatalf("outer memo not a forward instruction: %q", plan.Memo)
	}
	if outer.Port != "transfer" || outer.Channel != "channel-1" || outer.Receiver != "forward-module" {
		t.Fatalf("outer forward %+v", outer)
	}
	inner := middleware.ParseForwardMemo(outer.Memo)
	if inner == nil {
		t.Fatalf("inner memo not a forward instruction: %q", outer.Memo)
	}
	if inner.Channel != "channel-1" || inner.Receiver != "carol" || inner.Memo != "hello" {
		t.Fatalf("inner forward %+v", inner)
	}
	// Single-hop: no nesting.
	one, _ := tab.Route("guest", "a")
	p1 := Plan(one, "carol", "forward-module", "m")
	if p1.Receiver != "carol" || p1.Memo != "m" {
		t.Fatalf("single-hop plan %+v", p1)
	}
}

func TestTraceDenomComposesAndUnwinds(t *testing.T) {
	tab := NewTable(lineLinks())
	out, _ := tab.Route("guest", "c")
	trace := TraceDenom(out, "TOK")
	want := []string{
		"TOK",
		"transfer/channel-0/TOK",
		"transfer/channel-0/transfer/channel-0/TOK",
		"transfer/channel-0/transfer/channel-0/transfer/channel-0/TOK",
	}
	if !reflect.DeepEqual(trace, want) {
		t.Fatalf("trace = %v, want %v", trace, want)
	}
	// Sending the terminal voucher back unwinds to the native denom.
	back, _ := tab.Route("c", "guest")
	backTrace := TraceDenom(back, trace[len(trace)-1])
	if backTrace[len(backTrace)-1] != "TOK" {
		t.Fatalf("round trip ends at %q, want TOK", backTrace[len(backTrace)-1])
	}
}

// bfsRoutes is the reference router the never-observed View must agree
// with: breadth-first shortest paths with sorted expansion, ties broken
// on the lexicographically smallest (neighbor, channel). It was the
// production static table before the View became the only router.
func bfsRoutes(links []Link) map[string][]Hop {
	adj := make(map[string][]edge)
	addEdge := func(from, to string, h Hop) {
		adj[from] = append(adj[from], edge{to: to, hop: h})
	}
	for _, l := range links {
		addEdge(l.A, l.B, Hop{From: l.A, To: l.B, Port: l.PortA, Channel: l.ChannelA, DestPort: l.PortB, DestChannel: l.ChannelB})
		addEdge(l.B, l.A, Hop{From: l.B, To: l.A, Port: l.PortB, Channel: l.ChannelB, DestPort: l.PortA, DestChannel: l.ChannelA})
	}
	var chains []string
	for name, edges := range adj {
		chains = append(chains, name)
		sort.Slice(edges, func(i, j int) bool {
			if edges[i].to != edges[j].to {
				return edges[i].to < edges[j].to
			}
			return edges[i].hop.Channel < edges[j].hop.Channel
		})
		adj[name] = edges
	}
	sort.Strings(chains)

	routes := make(map[string][]Hop)
	for _, src := range chains {
		// BFS with sorted expansion: the first path found to each node is
		// both shortest and canonical.
		prev := map[string]Hop{}
		visited := map[string]bool{src: true}
		queue := []string{src}
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			for _, e := range adj[cur] {
				if visited[e.to] {
					continue
				}
				visited[e.to] = true
				prev[e.to] = e.hop
				queue = append(queue, e.to)
			}
		}
		for _, dst := range chains {
			if dst == src || !visited[dst] {
				continue
			}
			var hops []Hop
			for cur := dst; cur != src; {
				h := prev[cur]
				hops = append([]Hop{h}, hops...)
				cur = h.From
			}
			routes[routeKey(src, dst)] = hops
		}
	}
	return routes
}

// TestStaticViewMatchesBFSOracle is the seeded property behind folding
// the static table into the View: on random connected and disconnected
// graphs — chain names that prefix each other and contain bytes sorting
// below the path separator, parallel links, link order permuted and
// orientations flipped — NewTable(links).Route equals the BFS oracle for
// every chain pair, typed errors included.
func TestStaticViewMatchesBFSOracle(t *testing.T) {
	pool := []string{"a", "a-b", "a-", "ab", "a.b", "a0", "b", "b-a", "guest", "guest-a", "z"}
	rng := rand.New(rand.NewSource(20250928))
	for trial := 0; trial < 200; trial++ {
		names := append([]string(nil), pool...)
		rng.Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
		names = names[:2+rng.Intn(6)]
		// Split into one or two components; each is a random spanning
		// tree plus random extra (possibly parallel) links.
		comps := [][]string{names}
		if len(names) >= 4 && rng.Intn(3) == 0 {
			cut := 2 + rng.Intn(len(names)-3)
			comps = [][]string{names[:cut], names[cut:]}
		}
		nextChan := map[string]int{}
		var links []Link
		link := func(a, b string) {
			l := Link{A: a, B: b, PortA: "transfer", PortB: "transfer",
				ChannelA: ibc.ChannelID(fmt.Sprintf("channel-%d", nextChan[a])),
				ChannelB: ibc.ChannelID(fmt.Sprintf("channel-%d", nextChan[b]))}
			nextChan[a]++
			nextChan[b]++
			links = append(links, l)
		}
		for _, comp := range comps {
			for i := 1; i < len(comp); i++ {
				link(comp[rng.Intn(i)], comp[i])
			}
			for extra := rng.Intn(len(comp) + 1); extra > 0; extra-- {
				if a, b := comp[rng.Intn(len(comp))], comp[rng.Intn(len(comp))]; a != b {
					link(a, b)
				}
			}
		}
		want := bfsRoutes(links)

		permuted := append([]Link(nil), links...)
		rng.Shuffle(len(permuted), func(i, j int) { permuted[i], permuted[j] = permuted[j], permuted[i] })
		for i, l := range permuted {
			if rng.Intn(2) == 0 {
				permuted[i] = Link{A: l.B, B: l.A, PortA: l.PortB, PortB: l.PortA, ChannelA: l.ChannelB, ChannelB: l.ChannelA}
			}
		}
		tab := NewTable(permuted)
		for _, src := range names {
			for _, dst := range names {
				got, err := tab.Route(src, dst)
				ref, ok := want[routeKey(src, dst)]
				switch {
				case src == dst:
					if !errors.Is(err, ErrSameChain) {
						t.Fatalf("trial %d: %s->%s err = %v, want ErrSameChain", trial, src, dst, err)
					}
				case !ok:
					if !errors.Is(err, ErrNoRoute) {
						t.Fatalf("trial %d: %s->%s err = %v, want ErrNoRoute (links %+v)", trial, src, dst, err, links)
					}
				case err != nil || !reflect.DeepEqual(got, ref):
					t.Fatalf("trial %d: %s->%s\n view %+v (err %v)\n bfs  %+v\n links %+v", trial, src, dst, got, err, ref, links)
				}
				if flow, ferr := tab.RouteFlow(src, dst, "alice", uint64(trial)); !reflect.DeepEqual(flow, got) || (ferr == nil) != (err == nil) {
					t.Fatalf("trial %d: %s->%s RouteFlow %+v diverges from Route %+v", trial, src, dst, flow, got)
				}
			}
		}
	}
}
