package searchsim

import (
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"contextrank/internal/newsgen"
	"contextrank/internal/textproc"
)

// BenchmarkIngest measures the live tier end to end at paper scale: b.N
// pre-generated stories streamed through Add/Commit while a background
// compactor folds segments and a paced probe serves reads — the cmd/ingest
// pipeline with the feed generation cost hoisted out of the timer. Two
// custom metrics are guarded in CI (DESIGN.md §10):
//
//   - docs-per-sec: streaming ingest throughput, floored at the 2,000
//     docs/sec acceptance bar (BENCH.baseline.json).
//   - read-p99-ratio: p99 cold-read latency while a major compaction is
//     running, divided by p99 on the quiet frozen-only index. If compaction
//     ever blocked readers — a lock shared with the query path, a stalled
//     snapshot swap — every read in the window would stall and the ratio
//     would explode; the guard pins it near 1.
//
// Latency is measured on the memo-bypassing evaluation path (the
// exhaustive form of view.topHits, like BenchmarkPhraseEval) so per-view
// count caching can't mask a regression.
func BenchmarkIngest(b *testing.B) {
	w, _ := paperScaleEngine(b)
	e := BuildCorpus(w, CorpusConfig{Seed: 72})
	names := make([]string, len(w.Concepts))
	for i := range w.Concepts {
		names[i] = w.Concepts[i].Name
	}
	readOnce := func(name string, sc *evalScratch) time.Duration {
		t0 := time.Now() //kwlint:ignore determinism — latency benchmark measures real elapsed time on purpose
		v := e.cur.Load()
		terms := textproc.Words(name)
		v.topHits(terms, e.internIDs(terms, sc), 0, sc)
		return time.Since(t0) //kwlint:ignore determinism — latency benchmark measures real elapsed time on purpose
	}

	// Pre-generate the story stream so the timer sees engine cost only
	// (+256 extra for the phase-3 live tail).
	feed := newsgen.NewFeed(w, newsgen.Config{Seed: 73}, 64)
	stories := make([]newsgen.Story, 0, b.N+256)
	for len(stories) < b.N+256 {
		stories = append(stories, feed.NextBatch()...)
	}
	tail := stories[b.N : b.N+256]
	stories = stories[:b.N]

	// Between samples, both latency phases walk a few MB of scratch memory:
	// the cache traffic of everything else a busy serving process does
	// between two requests. Without it the frozen-only baseline is
	// artificially warm (the quiet loop's postings stay resident across
	// samples) while during-merge samples always start cold — and the ratio
	// would conflate cache residency with compaction interference, which is
	// the thing it exists to isolate.
	dirt := make([]byte, 4<<20)
	scrub := func() {
		for i := 0; i < len(dirt); i += 64 {
			dirt[i]++
		}
	}

	sc := getScratch()
	defer putScratch(sc)

	// Phase 1 (timed): stream the docs with a background compactor and one
	// paced read probe, mirroring cmd/ingest.
	var stop, compDone atomic.Bool
	done := make(chan struct{}, 2)
	go func() {
		for !stop.Load() {
			if !e.Compact(0) {
				time.Sleep(500 * time.Microsecond)
			}
		}
		done <- struct{}{}
	}()
	go func() {
		probeSc := getScratch()
		defer putScratch(probeSc)
		for i := 0; !stop.Load(); i++ {
			readOnce(names[i%len(names)], probeSc)
			time.Sleep(time.Millisecond)
		}
		done <- struct{}{}
	}()
	b.ResetTimer()
	start := time.Now() //kwlint:ignore determinism — throughput benchmark reads the wall clock on purpose
	for i := 0; i < b.N; i++ {
		e.Add(stories[i].Text, stories[i].Topic)
		if i%64 == 63 {
			e.Commit()
		}
	}
	e.Commit()
	ingestSec := time.Since(start).Seconds() //kwlint:ignore determinism — throughput benchmark reads the wall clock on purpose
	b.StopTimer()
	stop.Store(true)
	<-done
	<-done

	// Phase 2: frozen-only read baseline. Fold everything first so the
	// baseline sees the same corpus the during-merge probe will — a
	// baseline taken on the pre-ingest index would make the ratio mostly
	// measure that queries cost more on a bigger index, not compaction.
	e.CompactAll()
	frozen := make([]time.Duration, 4096)
	for i := range frozen {
		scrub()
		frozen[i] = readOnce(names[i%len(names)], sc)
	}

	// Phase 3: p99 cold-read latency while a full major merge runs.
	// Re-open a small live tail — the canonical shape that precedes a
	// major merge (fully-folded index plus fresh segments). Measuring on
	// that view isolates merge *interference* from multi-segment read
	// amplification: reads over a deep unfolded stack are legitimately
	// slower, but that is a property of the view, not of the merge running
	// beside it. The probe is paced like request traffic (not a spin
	// loop): each sample times one query from dispatch, the shape a
	// serving tier sees. The merge's cooperative yields are what keep this
	// bounded on boxes with fewer cores than goroutines.
	for _, story := range tail {
		e.Add(story.Text, story.Topic)
	}
	e.Commit()
	go func() {
		e.CompactAll()
		compDone.Store(true)
	}()
	var during []time.Duration
	for i := 0; !compDone.Load(); i++ {
		scrub()
		during = append(during, readOnce(names[i%len(names)], sc))
		time.Sleep(200 * time.Microsecond)
	}

	if ingestSec > 0 {
		b.ReportMetric(float64(b.N)/ingestSec, "docs-per-sec")
	}
	// Too few overlapping reads means compaction had nothing left to fold;
	// report a neutral ratio rather than a noise-driven one.
	ratio := 1.0
	if len(during) >= 64 {
		ratio = float64(p99(during)) / float64(p99(frozen))
	}
	b.ReportMetric(ratio, "read-p99-ratio")
	b.ReportMetric(float64(len(during)), "compaction-reads")
}

// snippetsLiveE caches BenchmarkSnippetsLive's engine across its runs:
// ingesting its stories costs seconds.
var snippetsLiveE *Engine

// BenchmarkSnippetsLive measures the overlay query, Snippets(name, 3), on
// the index a serving process holds after a day of news: the paper-scale
// corpus plus 12,000 ingested feed stories, committed every 64 and
// compacted inline until nothing is left to merge, as the request-level
// benchmark's writer does. The matching sets have grown several-fold over
// the bulk-built corpus's, which is where a top-k evaluation that ranked
// every hit paid. make bench guards its allocs/op (BENCH.baseline.json).
func BenchmarkSnippetsLive(b *testing.B) {
	w, _ := paperScaleEngine(b)
	if snippetsLiveE == nil {
		e := BuildCorpus(w, CorpusConfig{Seed: 72})
		feed := newsgen.NewFeed(w, newsgen.Config{Seed: 74}, 64)
		for n := 0; n < 12000; {
			for _, st := range feed.NextBatch() {
				e.Add(st.Text, st.Topic)
				n++
			}
			e.Commit()
			for e.Compact(1) {
			}
		}
		snippetsLiveE = e
	}
	e := snippetsLiveE
	names := make([]string, len(w.Concepts))
	for i := range w.Concepts {
		names[i] = w.Concepts[i].Name
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Snippets(names[i%len(names)], 3)
	}
}

// p99 returns the 99th-percentile sample; sorts a copy.
func p99(samples []time.Duration) time.Duration {
	s := make([]time.Duration, len(samples))
	copy(s, samples)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[len(s)*99/100]
}
