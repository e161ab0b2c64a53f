package searchsim

import (
	"sync"
	"sync/atomic"

	"contextrank/internal/match"
)

// countCacheShards is the number of independently-locked shards in the
// ResultCount memo cache. Same sharding idiom as the serve annotation cache:
// FNV-64a over the key picks the shard, so contention is spread without any
// cross-shard coordination.
const countCacheShards = 16

// countCache memoizes ResultCount by phrase. It belongs to a published
// view: a view's visible index never changes, which is what makes the memo
// sound — the engine installs a fresh cache exactly when the
// visibility horizon moves (and carries the cache across pure compaction
// republishes, which change no answer). Values are plain ints computed
// deterministically from the index, so concurrent fills of the same key are
// idempotent. Hit/miss counters are engine-owned atomics so /statz
// accounting survives cache rollover.
type countCache struct {
	shards [countCacheShards]countShard
	hits   *atomic.Int64
	misses *atomic.Int64
}

type countShard struct {
	mu sync.RWMutex
	//kw:guardedby(mu)
	m map[string]int
}

func newCountCache(hits, misses *atomic.Int64) *countCache {
	c := &countCache{hits: hits, misses: misses}
	for i := range c.shards {
		c.shards[i].m = make(map[string]int)
	}
	return c
}

// get looks up phrase, recording a hit or miss.
func (c *countCache) get(phrase string) (int, bool) {
	s := &c.shards[match.Hash(phrase)%countCacheShards]
	s.mu.RLock()
	v, ok := s.m[phrase]
	s.mu.RUnlock()
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return v, ok
}

// put stores phrase→n.
func (c *countCache) put(phrase string, n int) {
	s := &c.shards[match.Hash(phrase)%countCacheShards]
	s.mu.Lock()
	s.m[phrase] = n
	s.mu.Unlock()
}
