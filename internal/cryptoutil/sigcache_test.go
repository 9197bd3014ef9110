package cryptoutil

import (
	"container/list"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// listLRU is the container/list LRU sigCache replaced, kept as the oracle
// its eviction order must match.
type listLRU struct {
	cap int
	ll  *list.List // front = most recently used
	m   map[Hash]*list.Element
}

func newListLRU(capacity int) *listLRU {
	return &listLRU{cap: capacity, ll: list.New(), m: make(map[Hash]*list.Element, capacity)}
}

func (c *listLRU) contains(key Hash) bool {
	el, ok := c.m[key]
	if ok {
		c.ll.MoveToFront(el)
	}
	return ok
}

func (c *listLRU) add(key Hash) {
	if el, ok := c.m[key]; ok {
		c.ll.MoveToFront(el)
		return
	}
	for c.ll.Len() >= c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.m, oldest.Value.(Hash))
	}
	c.m[key] = c.ll.PushFront(key)
}

// order lists the oracle's keys, most recently used first.
func (c *listLRU) order() []Hash {
	var out []Hash
	for el := c.ll.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(Hash))
	}
	return out
}

// order lists the cache's keys, most recently used first, walking the
// recency list both ways to check its links.
func (c *sigCache) order(t *testing.T) []Hash {
	t.Helper()
	var fwd, back []Hash
	for i := c.head; i >= 0; i = c.entries[i].next {
		fwd = append(fwd, c.entries[i].key)
	}
	for i := c.tail; i >= 0; i = c.entries[i].prev {
		back = append(back, c.entries[i].key)
	}
	slices.Reverse(back)
	if !slices.Equal(fwd, back) || len(fwd) != len(c.m) || len(fwd) != len(c.entries) {
		t.Fatalf("recency list broken: %d forward, %d backward, %d mapped, %d entries", len(fwd), len(back), len(c.m), len(c.entries))
	}
	return fwd
}

// TestSigCacheMatchesListLRU drives the cache and the list oracle through
// seeded random contains/add sequences at small capacities: every verdict
// and the recency order — hence the resident set and the next eviction —
// agree after every operation.
func TestSigCacheMatchesListLRU(t *testing.T) {
	for capacity := 1; capacity <= 6; capacity++ {
		for seed := int64(1); seed <= 20; seed++ {
			rng := rand.New(rand.NewSource(seed))
			universe := make([]Hash, 2*capacity+2)
			for i := range universe {
				universe[i] = HashBytes([]byte(fmt.Sprintf("k%d", i)))
			}
			got, want := newSigCache(capacity), newListLRU(capacity)
			for op := 0; op < 200; op++ {
				key := universe[rng.Intn(len(universe))]
				if rng.Intn(2) == 0 {
					if g, w := got.contains(key), want.contains(key); g != w {
						t.Fatalf("cap %d seed %d op %d: contains = %v, oracle %v", capacity, seed, op, g, w)
					}
				} else {
					got.add(key)
					want.add(key)
				}
				if g, w := got.order(t), want.order(); !slices.Equal(g, w) {
					t.Fatalf("cap %d seed %d op %d: order %x, oracle %x", capacity, seed, op, g, w)
				}
			}
		}
	}
}

// TestSigCacheAddAllocatesNothing pins the point of the intrusive list:
// adding a new key to a full, warm cache evicts and reuses an entry
// in place, where the list oracle boxes the key and allocates an element.
func TestSigCacheAddAllocatesNothing(t *testing.T) {
	const capacity, runs = 64, 1000
	keys := make([]Hash, capacity+runs+1)
	for i := range keys {
		keys[i] = HashBytes([]byte(fmt.Sprintf("alloc%d", i)))
	}
	c, oracle := newSigCache(capacity), newListLRU(capacity)
	for _, k := range keys[:capacity] {
		c.add(k)
		oracle.add(k)
	}
	next := capacity
	if got := testing.AllocsPerRun(runs, func() { c.add(keys[next]); next++ }); got != 0 {
		t.Errorf("sigCache.add of a new key into a full cache: %v allocs, want 0", got)
	}
	next = capacity
	if got := testing.AllocsPerRun(runs, func() { oracle.add(keys[next]); next++ }); got == 0 {
		t.Errorf("list oracle add: 0 allocs; the pin measures nothing")
	}
}
