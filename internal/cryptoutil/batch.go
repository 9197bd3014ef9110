package cryptoutil

import (
	"container/list"
	"runtime"
	"sync"
	"sync/atomic"
)

// VerifyTask is one Ed25519 verification request submitted to a
// BatchVerifier. Msg is the raw signed message; for the common case of
// signatures over a 32-byte digest use HashTask.
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
// attacker from churning the cache with garbage signatures.
type sigCache struct {
	mu  sync.Mutex
	cap int
	ll  *list.List // front = most recently used; values are Hash keys
	m   map[Hash]*list.Element
}

func newSigCache(capacity int) *sigCache {
	return &sigCache{
		cap: capacity,
		ll:  list.New(),
		m:   make(map[Hash]*list.Element, capacity),
	}
}

// contains reports whether key is cached, promoting it on hit.
func (c *sigCache) contains(key Hash) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.m[key]
	if ok {
		c.ll.MoveToFront(el)
	}
	return ok
}

// add inserts key, evicting the least recently used entry when full.
func (c *sigCache) add(key Hash) {
	c.mu.Lock()
	defer c.mu.Unlock()
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

func (c *sigCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
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
	Len    int
	Cap    int
}

// Stats returns the verifier's cumulative cache counters and current size.
func (v *BatchVerifier) Stats() CacheStats {
	s := CacheStats{Hits: v.hits.Load(), Misses: v.misses.Load()}
	if v.cache != nil {
		s.Len = v.cache.len()
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
	workers := min(v.workers, len(tasks))
	if workers <= 1 {
		for i := range tasks {
			results[i] = v.Verify(tasks[i])
		}
		return results
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
				if i >= len(tasks) {
					return
				}
				results[i] = v.Verify(tasks[i])
			}
		}()
	}
	wg.Wait()
	return results
}
