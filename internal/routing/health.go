package routing

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"
)

// LinkID returns the canonical mesh identifier for the link between a
// and b — the lexicographically smaller chain first, matching the link
// IDs core's mesh bootstrap assigns.
func LinkID(a, b string) string {
	if b < a {
		a, b = b, a
	}
	return a + "-" + b
}

// LinkHealth is one telemetry sample for a link, fed from the relayers
// serving it: the EWMA packet-delivery latency and the depth of the
// relayer's queued work (inbound packets, pending acks, ack backlog, paced
// jobs).
type LinkHealth struct {
	// Latency is the EWMA delivery latency in seconds.
	Latency float64
	// Backlog is the current queued-work depth.
	Backlog int
}

// A link's cost is baseCost, the per-hop floor that lets shorter paths
// win when health is equal, plus latencyWeight per second of EWMA delivery
// latency and backlogWeight per backlogged work item — one more hop's
// worth per second of latency, per 50 queued items. A chain pair keeps at
// most maxPaths near-equal-cost paths.
const (
	baseCost      = 1.0
	latencyWeight = 1.0
	backlogWeight = 0.02
	maxPaths      = 4
)

// CostModel is what a deployment tunes about the adaptive view: how far
// costs must move before routes do, and how close to the best a path must
// be to share its traffic. A zero field takes DefaultCostModel's value.
type CostModel struct {
	// Hysteresis is the minimum fractional change of any link's cost
	// (relative to the cost backing the current table) that triggers a
	// recompute; smaller drifts are absorbed so routes don't flap.
	Hysteresis float64
	// ECMPSpread widens equal-cost matching: a path whose cost is
	// within (1+ECMPSpread)x the best is part of the multi-path set.
	ECMPSpread float64
}

// DefaultCostModel returns the tuning used by core when a mesh enables
// adaptive routing without overriding the model.
func DefaultCostModel() CostModel {
	return CostModel{Hysteresis: 0.25, ECMPSpread: 0.05}
}

// View is the one router: the link graph scored by a CostModel over live
// health samples. Routes are weighted shortest paths recomputed only
// when some link's cost drifts past the hysteresis threshold; chain pairs with several near-equal-cost paths
// split flows across them by deterministic weighted hashing of
// (sender, sequence), so a given flow is sticky but the aggregate load
// spreads. All tie-breaks are canonical or seeded — two same-seed runs
// observing the same health route identically.
type View struct {
	model CostModel
	seed  int64
	// maxPaths caps the retained path set per chain pair (1 for NewTable).
	maxPaths int

	links  []Link
	ids    []string // canonical link IDs, sorted
	chains []string

	samples map[string]LinkHealth

	effective map[string]float64 // costs backing the current path table
	paths     map[string][]scoredPath
}

// scoredPath is one retained route with the cost it was computed at.
type scoredPath struct {
	hops []Hop
	cost float64
}

// NewTable builds the static router: a View that keeps one path per
// chain pair and is never fed health, so every link costs baseCost
// forever and Route/RouteFlow return the hop-count shortest path, ties
// broken on the smallest (chain, channel) sequence — a pure function of
// the link set, whatever order or orientation the links are declared in.
func NewTable(links []Link) *View {
	return newView(links, CostModel{}, 0, 1)
}

// NewView builds the dynamic view over links. With no health samples
// every link costs baseCost, so the initial table is hop-count shortest
// paths. seed feeds the deterministic tie-break and ECMP hashing.
func NewView(links []Link, model CostModel, seed int64) *View {
	return newView(links, model, seed, maxPaths)
}

func newView(links []Link, model CostModel, seed int64, paths int) *View {
	d := DefaultCostModel()
	if model.Hysteresis <= 0 {
		model.Hysteresis = d.Hysteresis
	}
	if model.ECMPSpread <= 0 {
		model.ECMPSpread = d.ECMPSpread
	}
	v := &View{
		model:    model,
		seed:     seed,
		maxPaths: paths,
		links:    append([]Link(nil), links...),
		samples:  make(map[string]LinkHealth),
	}
	seen := make(map[string]bool)
	chains := make(map[string]bool)
	for _, l := range v.links {
		id := LinkID(l.A, l.B)
		if !seen[id] {
			seen[id] = true
			v.ids = append(v.ids, id)
		}
		chains[l.A] = true
		chains[l.B] = true
	}
	sort.Strings(v.ids)
	for c := range chains {
		v.chains = append(v.chains, c)
	}
	sort.Strings(v.chains)
	v.effective = v.freshCosts()
	v.rebuild()
	return v
}

// Cost returns the effective cost of link id in the live table.
func (v *View) Cost(id string) float64 {
	if c, ok := v.effective[id]; ok {
		return c
	}
	return baseCost
}

// Observe records a health sample for link id (canonical LinkID).
// Samples take effect at the next Refresh.
func (v *View) Observe(id string, h LinkHealth) { v.samples[id] = h }

// freshCosts scores every link from the latest samples.
func (v *View) freshCosts() map[string]float64 {
	costs := make(map[string]float64, len(v.ids))
	for _, id := range v.ids {
		h := v.samples[id]
		costs[id] = baseCost + latencyWeight*h.Latency + backlogWeight*float64(h.Backlog)
	}
	return costs
}

// Refresh recomputes link costs from the observed samples and rebuilds
// the path table if any link's cost moved more than the hysteresis
// fraction away from the cost backing the current table. Returns true
// when the table was rebuilt.
func (v *View) Refresh() bool {
	fresh := v.freshCosts()
	trigger := false
	for _, id := range v.ids {
		old := v.effective[id]
		if old <= 0 {
			old = baseCost
		}
		if math.Abs(fresh[id]-old)/old > v.model.Hysteresis {
			trigger = true
			break
		}
	}
	if !trigger {
		return false
	}
	v.effective = fresh
	v.rebuild()
	return true
}

// rebuild enumerates, for every ordered chain pair, all simple paths in
// canonical adjacency order, keeps the cheapest and every path within
// ECMPSpread of it (capped at maxPaths), and sorts the survivors by
// (cost, hop count, canonical chain sequence). Enumeration order is a
// pure function of the link set, so permuting link declarations cannot
// change the result.
func (v *View) rebuild() {
	adj := make(map[string][]edge)
	for _, l := range v.links {
		adj[l.A] = append(adj[l.A], edge{to: l.B, hop: l.HopFrom(l.A)})
		adj[l.B] = append(adj[l.B], edge{to: l.A, hop: l.HopFrom(l.B)})
	}
	for name, edges := range adj {
		sort.Slice(edges, func(i, j int) bool {
			if edges[i].to != edges[j].to {
				return edges[i].to < edges[j].to
			}
			return edges[i].hop.Channel < edges[j].hop.Channel
		})
		adj[name] = edges
	}

	v.paths = make(map[string][]scoredPath)
	for _, src := range v.chains {
		for _, dst := range v.chains {
			if src == dst {
				continue
			}
			found := v.enumerate(adj, src, dst)
			if len(found) == 0 {
				continue
			}
			sort.Slice(found, func(i, j int) bool {
				if found[i].cost != found[j].cost {
					return found[i].cost < found[j].cost
				}
				if len(found[i].hops) != len(found[j].hops) {
					return len(found[i].hops) < len(found[j].hops)
				}
				return lessPath(found[i].hops, found[j].hops)
			})
			best := found[0].cost
			limit := best * (1 + v.model.ECMPSpread)
			kept := found[:0]
			for _, p := range found {
				if p.cost > limit || len(kept) >= v.maxPaths {
					break
				}
				kept = append(kept, p)
			}
			v.paths[routeKey(src, dst)] = append([]scoredPath(nil), kept...)
		}
	}
}

// enumerate walks every simple path src->dst depth-first in canonical
// adjacency order, scoring each by the sum of its links' effective
// costs.
func (v *View) enumerate(adj map[string][]edge, src, dst string) []scoredPath {
	var out []scoredPath
	onPath := map[string]bool{src: true}
	var hops []Hop
	var walk func(cur string, cost float64)
	walk = func(cur string, cost float64) {
		if cur == dst {
			out = append(out, scoredPath{hops: append([]Hop(nil), hops...), cost: cost})
			return
		}
		for _, e := range adj[cur] {
			if onPath[e.to] {
				continue
			}
			onPath[e.to] = true
			hops = append(hops, e.hop)
			walk(e.to, cost+v.Cost(LinkID(cur, e.to)))
			hops = hops[:len(hops)-1]
			onPath[e.to] = false
		}
	}
	walk(src, 0)
	return out
}

// lessPath orders equal-length paths by their (chain, channel) sequence,
// hop by hop — never by a joined string, where a separator could sort
// inside a chain name.
func lessPath(a, b []Hop) bool {
	for i := range a {
		if a[i].To != b[i].To {
			return a[i].To < b[i].To
		}
		if a[i].Channel != b[i].Channel {
			return a[i].Channel < b[i].Channel
		}
	}
	return false
}

// Route returns the current best path src->dst. When several retained
// paths tie at exactly the best cost the choice is a deterministic
// seeded hash of (src, dst) — stable within a run, reproducible across
// same-seed runs, and not biased toward declaration order.
func (v *View) Route(src, dst string) ([]Hop, error) {
	set, err := v.routeSet(src, dst)
	if err != nil {
		return nil, err
	}
	tied := 1
	for tied < len(set) && set[tied].cost == set[0].cost {
		tied++
	}
	if tied == 1 {
		return set[0].hops, nil
	}
	return set[flowHash(v.seed, "route", src+" "+dst, 0)%uint64(tied)].hops, nil
}

// RouteFlow picks a path for one packet of a flow: equal-cost
// multi-path by weighted deterministic hashing of (sender, sequence).
// Each retained path is weighted by bestCost/cost, so exact ties split
// evenly and near-ties shade toward the cheaper arm. The hash is seeded
// — the same (seed, sender, sequence) always takes the same arm.
func (v *View) RouteFlow(src, dst, sender string, seq uint64) ([]Hop, error) {
	set, err := v.routeSet(src, dst)
	if err != nil {
		return nil, err
	}
	if len(set) == 1 {
		return set[0].hops, nil
	}
	total := 0.0
	weights := make([]float64, len(set))
	for i, p := range set {
		w := set[0].cost / p.cost
		weights[i] = w
		total += w
	}
	r := float64(flowHash(v.seed, "ecmp", sender, seq)%(1<<53)) / (1 << 53) * total
	for i, w := range weights {
		r -= w
		if r < 0 {
			return set[i].hops, nil
		}
	}
	return set[len(set)-1].hops, nil
}

// routeSet fetches the retained path set with the typed errors Route
// and RouteFlow share.
func (v *View) routeSet(src, dst string) ([]scoredPath, error) {
	if src == dst {
		return nil, fmt.Errorf("%w: %s->%s", ErrSameChain, src, dst)
	}
	set := v.paths[routeKey(src, dst)]
	if len(set) == 0 {
		return nil, fmt.Errorf("%w: %s->%s", ErrNoRoute, src, dst)
	}
	return set, nil
}

// flowHash is the deterministic seeded hash behind tie-breaks and ECMP:
// FNV-1a over (seed, kind, key, seq).
func flowHash(seed int64, kind, key string, seq uint64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	u := uint64(seed)
	for i := 0; i < 8; i++ {
		b[i] = byte(u >> (8 * i))
	}
	h.Write(b[:])
	h.Write([]byte(kind))
	h.Write([]byte(key))
	u = seq
	for i := 0; i < 8; i++ {
		b[i] = byte(u >> (8 * i))
	}
	h.Write(b[:])
	return h.Sum64()
}
