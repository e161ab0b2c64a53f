package serve

import (
	"container/list"
	"context"
	"sync"
	"sync/atomic"
	"time"

	"contextrank/internal/resilience"
)

// Cache is the annotation response cache: a sharded LRU over serialized
// /v1/annotate bodies with single-flight coalescing of concurrent misses.
//
// Contract (DESIGN.md §10):
//
//   - Keyed by the FNV-64a hash of the stripped document text plus topN. A
//     hit returns the exact bytes the cold path produced, so cached and
//     fresh responses are byte-identical. Hash collisions are detected by
//     comparing the stored text — an entry's on a lookup, a flight's before
//     a miss joins it — and demoted to misses: a collision can waste a slot
//     or a computation, never serve the wrong document's annotations.
//   - Degraded responses (shed or deadline-expired requests) are never
//     stored: they reflect transient pressure, not the document.
//   - Hits bypass the admission gate — serving memory must stay cheap under
//     exactly the load spikes that make the gate shed.
//   - Concurrent misses on one key coalesce through resilience.Flights: one
//     pipeline run, detached from the leader and bounded by FillTimeout.
//
// Sharding keeps the lock a per-shard mutex held only for map/list pokes;
// the pipeline itself always runs outside any cache lock.
type Cache struct {
	shards   []cacheShard
	perShard int

	// FillTimeout bounds a detached cache fill (see fill). Zero uses
	// DefaultFillTimeout. cmd/serve sizes it from the request deadline.
	FillTimeout time.Duration

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
	coalesced atomic.Int64
}

// DefaultFillTimeout is the fill bound when FillTimeout is unset: long
// enough for any admitted pipeline run, short enough that an abandoned
// fill cannot pin a gate slot indefinitely.
const DefaultFillTimeout = 5 * time.Second

// numCacheShards is the shard count (power of two, so shard selection is a
// mask). 16 shards keep lock contention negligible at serving parallelism.
const numCacheShards = 16

type cacheKey struct {
	hash  uint64
	top   int
	epoch uint64 // index visibility epoch: live ingest invalidates by key rotation
}

type cacheEntry struct {
	key  cacheKey
	text string // full key text: collision check on hit
	body []byte
}

type cacheShard struct {
	mu sync.Mutex
	//kw:guardedby(mu)
	entries map[cacheKey]*list.Element // of *cacheEntry
	//kw:guardedby(mu)
	lru *list.List // front = most recent
	// flights coalesces the shard's misses; its id is the full key text.
	flights resilience.Flights[cacheKey, []byte]
}

// NewCache builds a cache holding up to capacity responses (rounded up to a
// multiple of the shard count). capacity <= 0 returns nil — a nil *Cache is
// a valid "caching disabled" value everywhere.
func NewCache(capacity int) *Cache {
	if capacity <= 0 {
		return nil
	}
	per := (capacity + numCacheShards - 1) / numCacheShards
	c := &Cache{shards: make([]cacheShard, numCacheShards), perShard: per}
	for i := range c.shards {
		c.shards[i].entries = make(map[cacheKey]*list.Element)
		c.shards[i].lru = list.New()
	}
	return c
}

func (c *Cache) shard(k cacheKey) *cacheShard {
	return &c.shards[k.hash&(numCacheShards-1)]
}

// lookup returns the cached body under k if it was stored for text, counts
// the hit and bumps the entry's recency. text may be a view into a request
// buffer: it is compared, never kept.
func lookup[T string | []byte](c *Cache, k cacheKey, text T) ([]byte, bool) {
	sh := c.shard(k)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	el, ok := sh.entries[k]
	if !ok {
		return nil, false
	}
	ent := el.Value.(*cacheEntry)
	if ent.text != string(text) {
		return nil, false // hash collision: treat as miss
	}
	sh.lru.MoveToFront(el)
	c.hits.Add(1)
	return ent.body, true
}

// put stores body under (text, top), evicting the shard's LRU tail on
// overflow.
func (c *Cache) put(k cacheKey, text string, body []byte) {
	sh := c.shard(k)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if el, ok := sh.entries[k]; ok {
		el.Value.(*cacheEntry).text = text
		el.Value.(*cacheEntry).body = body
		sh.lru.MoveToFront(el)
		return
	}
	sh.entries[k] = sh.lru.PushFront(&cacheEntry{key: k, text: text, body: body})
	if sh.lru.Len() > c.perShard {
		tail := sh.lru.Back()
		sh.lru.Remove(tail)
		delete(sh.entries, tail.Value.(*cacheEntry).key)
		c.evictions.Add(1)
	}
}

// A filler computes a missed response for (text, top): its body and whether
// it is cacheable. *Server is the handler's filler, so a miss through the
// handler builds one closure, fill's.
type filler interface {
	annotateBody(ctx context.Context, text string, top int) (body []byte, cacheable bool)
}

// fill is the miss half of a cache call, for a caller whose lookup under k
// has just missed. A panic in f is added to panics (when non-nil) and
// answered with resilience.ErrFlightPanicked.
func (c *Cache) fill(ctx context.Context, k cacheKey, text string, top int, panics *atomic.Int64, f filler) ([]byte, error) {
	c.misses.Add(1)
	timeout := c.FillTimeout
	if timeout <= 0 {
		timeout = DefaultFillTimeout
	}
	return c.shard(k).flights.Do(ctx, k, text, timeout, &c.coalesced, panics, func(fctx context.Context) []byte {
		// fctx is the detached fill context: the leader's values without
		// its cancellation, bounded by the fill deadline — a cancelled
		// leader cannot poison the coalesced waiters (DESIGN.md §8).
		body, ok := f.annotateBody(fctx, text, top)
		// Store before the flight retires: a request that arrives once the
		// flight is gone must find the entry, or it would recompute.
		if ok {
			c.put(k, text, body)
		}
		return body
	})
}

// CacheStats is the /statz view of the cache counters.
type CacheStats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	Coalesced int64 `json:"coalesced"`
	Entries   int   `json:"entries"`
	Capacity  int   `json:"capacity"`
}

// Stats snapshots the counters and current occupancy.
func (c *Cache) Stats() CacheStats {
	st := CacheStats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
		Coalesced: c.coalesced.Load(),
		Capacity:  c.perShard * numCacheShards,
	}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		st.Entries += sh.lru.Len()
		sh.mu.Unlock()
	}
	return st
}
