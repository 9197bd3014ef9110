package cryptoutil

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// VerifyTask is one Ed25519 verification request submitted to a
// BatchVerifier. Msg is the raw signed message; a batch of signatures over
// 32-byte digests points each Msg into one digest array, and HashTask
// builds a lone task that owns a copy of its digest.
type VerifyTask struct {
	Pub PubKey
	Msg []byte
	Sig Signature
}

// HashTask builds a VerifyTask for a signature over the 32 bytes of h.
// The returned task owns a copy of the digest, so h may be a loop-local
// value.
func HashTask(pub PubKey, h Hash, sig Signature) VerifyTask {
	msg := make([]byte, HashSize)
	copy(msg, h[:])
	return VerifyTask{Pub: pub, Msg: msg, Sig: sig}
}

// cacheKey uniquely identifies a (pubkey, message, signature) triple. The
// triple is folded through the tagged hash so arbitrary-length messages key
// a fixed-size entry.
func (t *VerifyTask) cacheKey() Hash {
	return HashTagged('V', t.Pub[:], t.Msg, t.Sig[:])
}

// sigCache is a mutex-protected bounded LRU of verification results. Only
// *valid* triples are stored: signature verification is a pure function, so
// a cached entry can never go stale, and refusing to cache failures keeps an
// attacker from churning the cache with garbage signatures. The recency
// list is intrusive: entries link by index into one slice sized to cap, and
// a full cache reuses its least recently used entry for the new key, so
// adding a key allocates nothing.
type sigCache struct {
	mu         sync.Mutex
	cap        int
	entries    []lruEntry
	head, tail int32 // most and least recently used entry; -1 when empty
	m          map[Hash]int32
}

// lruEntry is one cached key and its neighbours in recency order (-1 past
// either end).
type lruEntry struct {
	key        Hash
	prev, next int32
}

func newSigCache(capacity int) *sigCache {
	return &sigCache{
		cap:     capacity,
		entries: make([]lruEntry, 0, capacity),
		head:    -1,
		tail:    -1,
		m:       make(map[Hash]int32, capacity),
	}
}

// unlink takes entry i out of the recency list.
func (c *sigCache) unlink(i int32) {
	e := &c.entries[i]
	if e.prev >= 0 {
		c.entries[e.prev].next = e.next
	} else {
		c.head = e.next
	}
	if e.next >= 0 {
		c.entries[e.next].prev = e.prev
	} else {
		c.tail = e.prev
	}
}

// pushFront links entry i in as the most recently used.
func (c *sigCache) pushFront(i int32) {
	e := &c.entries[i]
	e.prev, e.next = -1, c.head
	if c.head >= 0 {
		c.entries[c.head].prev = i
	} else {
		c.tail = i
	}
	c.head = i
}

// promote makes entry i the most recently used.
func (c *sigCache) promote(i int32) {
	if c.head != i {
		c.unlink(i)
		c.pushFront(i)
	}
}

// contains reports whether key is cached, promoting it on hit.
func (c *sigCache) contains(key Hash) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	i, ok := c.m[key]
	if ok {
		c.promote(i)
	}
	return ok
}

// add inserts key, evicting the least recently used entry when full.
func (c *sigCache) add(key Hash) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if i, ok := c.m[key]; ok {
		c.promote(i)
		return
	}
	i := int32(len(c.entries))
	if len(c.entries) < c.cap {
		c.entries = append(c.entries, lruEntry{key: key})
	} else {
		i = c.tail
		c.unlink(i)
		delete(c.m, c.entries[i].key)
		c.entries[i].key = key
	}
	c.pushFront(i)
	c.m[key] = i
}

// BatchVerifier verifies sets of Ed25519 signatures across a sized worker
// pool with an optional bounded LRU cache of already-verified triples.
// Repeated light-client updates over the same validator set — or the same
// signed block checked by the light client, the precompile, and a fisherman
// — therefore pay for each Ed25519 verification once. The zero value is not
// ready; use NewBatchVerifier. All methods are safe for concurrent use.
type BatchVerifier struct {
	workers int
	cache   *sigCache

	hits   atomic.Uint64
	misses atomic.Uint64
}

// BatchOption configures a BatchVerifier.
type BatchOption func(*BatchVerifier)

// WithWorkers sets the worker-pool size (default GOMAXPROCS).
func WithWorkers(n int) BatchOption {
	return func(v *BatchVerifier) {
		if n > 0 {
			v.workers = n
		}
	}
}

// WithCacheSize bounds the verification cache to n entries; n <= 0 disables
// caching entirely.
func WithCacheSize(n int) BatchOption {
	return func(v *BatchVerifier) {
		if n <= 0 {
			v.cache = nil
		} else {
			v.cache = newSigCache(n)
		}
	}
}

// DefaultCacheSize is the default bound of the verification cache. At ~100
// bytes an entry the cache tops out around a megabyte — far below the
// footprint of the 28-day deployment it serves, and enough to cover several
// epochs of a large validator fleet.
const DefaultCacheSize = 8192

// NewBatchVerifier returns a verifier with GOMAXPROCS workers and a
// DefaultCacheSize-entry cache unless configured otherwise.
func NewBatchVerifier(opts ...BatchOption) *BatchVerifier {
	v := &BatchVerifier{
		workers: runtime.GOMAXPROCS(0),
		cache:   newSigCache(DefaultCacheSize),
	}
	for _, o := range opts {
		o(v)
	}
	return v
}

// defaultVerifier serves the package-level quorum-verification paths. The
// cache is shared process-wide deliberately: verification is pure, so one
// subsystem's work (e.g. the relayer assembling an update) pays for
// another's re-check (e.g. the light client or a fisherman audit).
var defaultVerifier = NewBatchVerifier()

// DefaultBatchVerifier returns the shared process-wide verifier.
func DefaultBatchVerifier() *BatchVerifier { return defaultVerifier }

// CacheStats is a point-in-time snapshot of cache effectiveness.
type CacheStats struct {
	Hits   uint64
	Misses uint64
	Cap    int
}

// Stats returns the verifier's cumulative cache counters and capacity.
func (v *BatchVerifier) Stats() CacheStats {
	s := CacheStats{Hits: v.hits.Load(), Misses: v.misses.Load()}
	if v.cache != nil {
		s.Cap = v.cache.cap
	}
	return s
}

// Verify checks a single task through the cache.
func (v *BatchVerifier) Verify(t VerifyTask) bool {
	var key Hash
	if v.cache != nil {
		key = t.cacheKey()
		if v.cache.contains(key) {
			v.hits.Add(1)
			return true
		}
	}
	v.misses.Add(1)
	if !Verify(t.Pub, t.Msg, t.Sig) {
		return false
	}
	if v.cache != nil {
		v.cache.add(key)
	}
	return true
}

// VerifyAll reports whether every task in the batch carries a valid
// signature: every VerifyEach verdict is true.
func (v *BatchVerifier) VerifyAll(tasks []VerifyTask) bool {
	for _, ok := range v.VerifyEach(tasks) {
		if !ok {
			return false
		}
	}
	return true
}

// VerifyEach verifies every task across the pool and returns per-task
// validity. It is the one batch path: a caller that must name an offender
// reports the first false, which is the task a sequential loop would
// stop at, and a fisherman screening a mixed stream of sightings skips
// the false entries.
func (v *BatchVerifier) VerifyEach(tasks []VerifyTask) []bool {
	results := make([]bool, len(tasks))
	fanOut(len(tasks), v.workers, func(i int) { results[i] = v.Verify(tasks[i]) })
	return results
}

// SignHashEach signs h under every key and returns the signatures in key
// order, exactly what a sequential SignHash loop returns (Ed25519 is
// deterministic), computed across GOMAXPROCS workers like the default
// verifier's.
func SignHashEach(keys []*PrivKey, h Hash) []Signature {
	sigs := make([]Signature, len(keys))
	fanOut(len(keys), runtime.GOMAXPROCS(0), func(i int) { sigs[i] = keys[i].SignHash(h) })
	return sigs
}

// fanOut calls f(i) for every i in [0, n) on min(workers, n) goroutines
// that claim indices from a shared counter, and returns when all calls
// have. It runs inline when n <= 1 or workers <= 1. The caller only waits:
// it does not claim indices itself. Running the caller as one of the
// workers measured slower on a two-core host (benchmark inbound-ladder,
// 112 → 131 µs per packet in three alternating pairs), most likely because
// the one goroutine it spawns then sits in its P's runnext slot until
// another P steals it, so the batch runs on one core for most of its
// length.
func fanOut(n, workers int, f func(i int)) {
	workers = min(workers, n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			f(i)
		}
		return
	}
	var (
		next atomic.Int64
		wg   sync.WaitGroup
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				f(i)
			}
		}()
	}
	wg.Wait()
}
