package newsgen

import (
	"contextrank/internal/par"
	"contextrank/internal/world"
)

// Feed is an endless deterministic story stream: the batched tail that
// cmd/ingest drains into the live search index. Each batch is generated
// independently under a seed derived from (Seed, batch index) via par.Seed,
// so the stream is a pure function of the feed seed and batch size — two
// feeds with the same parameters emit identical stories no matter how many
// batches either has drawn, which is what lets the ingest differential
// rebuild the exact doc stream from scratch.
type Feed struct {
	w     *world.World
	cfg   Config
	batch int
	next  int // next batch index
	base  int // global id of the next emitted story
}

// NewFeed creates a feed emitting batchSize stories per NextBatch call
// (default 64 when <= 0). cfg.NumStories is ignored; every other Config
// knob shapes the stream as it does Generate.
func NewFeed(w *world.World, cfg Config, batchSize int) *Feed {
	if batchSize <= 0 {
		batchSize = 64
	}
	return &Feed{w: w, cfg: cfg, batch: batchSize}
}

// NextBatch generates and returns the next batch of stories. Story IDs are
// globally sequential across batches. The feed never ends.
func (f *Feed) NextBatch() []Story {
	cfg := f.cfg
	cfg.Seed = par.Seed(f.cfg.Seed, f.next)
	cfg.NumStories = f.batch
	stories := Generate(f.w, cfg)
	for i := range stories {
		stories[i].ID = f.base + i
	}
	f.next++
	f.base += len(stories)
	return stories
}
