package serve

import (
	"container/list"
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"contextrank/internal/wire"
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
//   - Concurrent misses on one key coalesce: a single leader starts the
//     pipeline while followers wait for its bytes (or their own deadline).
//     The fill itself is detached from the leader's cancellation and
//     bounded by FillTimeout, so a cancelled leader can never poison the
//     coalesced waiters with its context error.
//
// Sharding keeps the lock a per-shard mutex held only for map/list pokes;
// the pipeline itself always runs outside any cache lock.
type Cache struct {
	shards   []cacheShard
	perShard int

	// FillTimeout bounds a detached cache fill (see Do). Zero uses
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

// flight is one in-progress computation; followers block on done.
type flight struct {
	text string // full key text: collision check before a miss joins
	done chan struct{}
	body []byte
	ok   bool  // false: leader produced an uncacheable (degraded) response
	err  error // errFillPanicked: fn panicked, and body is nil
}

// errFillPanicked is what every waiter on a fill whose fn panicked gets.
var errFillPanicked = errors.New("serve: cache fill panicked")

type cacheShard struct {
	mu sync.Mutex
	//kw:guardedby(mu)
	entries map[cacheKey]*list.Element // of *cacheEntry
	//kw:guardedby(mu)
	lru *list.List // front = most recent
	//kw:guardedby(mu)
	flights map[cacheKey]*flight
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
		c.shards[i].flights = make(map[cacheKey]*flight)
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

// Do returns the cached response for (text, top, epoch) or computes it via
// fn, coalescing concurrent misses on the same key. fn reports whether its
// result is cacheable (degraded responses are not). The returned bytes
// must be treated as read-only.
//
// epoch is the index visibility epoch (Server.IndexEpoch; 0 when no live
// index is wired). It is a key component, not a validity check: entries
// cached under an older epoch are never served once the epoch moves — they
// age out of the LRU — and responses for different epochs never coalesce,
// so a reader can't be handed annotations computed against a stale index.
//
// The fill is *detached* from the leader's cancellation: fn runs on a
// context that inherits the leader's values (chaos plan, tracing) but not
// its cancellation, bounded by FillTimeout. A leader whose own request is
// cancelled mid-fill can therefore never poison the coalesced waiters
// with its context error — the fill runs to completion (or its own
// bounded deadline, which fn surfaces as an uncacheable degraded result,
// i.e. a clean miss) and every waiter still holding a live context gets
// the result. An error is returned to a caller — leader or follower
// alike — whose ctx expires while waiting, and to every waiter on a fill
// whose fn panicked: the fill goroutine recovers, stores nothing and
// retires the flight, so the next miss starts afresh.
func (c *Cache) Do(ctx context.Context, text string, top int, epoch uint64, fn func(context.Context) ([]byte, bool)) ([]byte, error) {
	k := cacheKey{hash: wire.Key(text, top), top: top, epoch: epoch}
	if body, ok := lookup(c, k, text); ok {
		return body, nil
	}
	return c.fill(ctx, k, text, nil, fn)
}

// fill is the miss half of Do, for a caller whose lookup under k has just
// missed: join the flight for (k, text) or start it. A panic in fn is
// added to panics (when non-nil) and answered with errFillPanicked.
func (c *Cache) fill(ctx context.Context, k cacheKey, text string, panics *atomic.Int64, fn func(context.Context) ([]byte, bool)) ([]byte, error) {
	c.misses.Add(1)

	sh := c.shard(k)
	sh.mu.Lock()
	fl, taken := sh.flights[k]
	if taken && fl.text == text {
		sh.mu.Unlock()
		c.coalesced.Add(1)
		select {
		case <-fl.done:
			return fl.body, fl.err
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	// k taken by a flight for another text is a hash collision: that flight
	// keeps the slot and this request computes on its own, unregistered.
	fl = &flight{text: text, done: make(chan struct{})}
	if !taken {
		sh.flights[k] = fl
	}
	sh.mu.Unlock()

	fillTimeout := c.FillTimeout
	if fillTimeout <= 0 {
		fillTimeout = DefaultFillTimeout
	}
	fctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), fillTimeout)
	go func() {
		defer cancel()
		// Retire the flight however fn ends. This goroutine is no request's:
		// a panic left to unwind it would end the process, so it is
		// recovered, counted and handed to every waiter as errFillPanicked.
		defer func() {
			if rec := recover(); rec != nil {
				if panics != nil {
					panics.Add(1)
				}
				fl.body, fl.ok, fl.err = nil, false, errFillPanicked
			}
			if !taken {
				sh.mu.Lock()
				delete(sh.flights, k)
				sh.mu.Unlock()
			}
			close(fl.done)
		}()
		fl.body, fl.ok = fn(fctx)
		// Store before retiring the flight: a request that arrives once the
		// flight is gone must find the entry, or it would recompute.
		if fl.ok {
			c.put(k, text, fl.body)
		}
	}()
	select {
	case <-fl.done:
		return fl.body, fl.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
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
