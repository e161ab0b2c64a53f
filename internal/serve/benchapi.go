package serve

// Cache.Do is for bench/, its only caller (the handler calls lookup and
// fill); the benchonly analyzer keeps product code off it.

import (
	"context"

	"contextrank/internal/wire"
)

// Do is the handler's cache path for a closure: the cached response for
// (text, top, epoch), or fn's, filled as fill fills a miss. fn reports
// whether its result is cacheable. The returned bytes are read-only.
func (c *Cache) Do(ctx context.Context, text string, top int, epoch uint64, fn func(context.Context) ([]byte, bool)) ([]byte, error) {
	k := cacheKey{hash: wire.Key(text, top), top: top, epoch: epoch}
	if body, ok := lookup(c, k, text); ok {
		return body, nil
	}
	return c.fill(ctx, k, text, top, nil, fillFunc(fn))
}

// fillFunc is Do's fn as a filler; fn computes the one key it was given for.
type fillFunc func(context.Context) ([]byte, bool)

func (fn fillFunc) annotateBody(ctx context.Context, _ string, _ int) ([]byte, bool) {
	return fn(ctx)
}
