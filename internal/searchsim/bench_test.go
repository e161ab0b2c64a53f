package searchsim

import (
	"testing"

	"contextrank/internal/textproc"
	"contextrank/internal/world"
)

// benchWorld/benchEngine cache the paper-scale corpus across benchmarks:
// building it costs seconds and every benchmark reads it read-only.
var (
	benchW *world.World
	benchE *Engine
)

// paperScaleEngine builds (once) a corpus with the approximate data volume
// of contextrank.PaperConfig: ~1200 concepts over a 6000-term vocabulary.
func paperScaleEngine(b *testing.B) (*world.World, *Engine) {
	b.Helper()
	if benchE == nil {
		benchW = world.New(world.Config{Seed: 71, VocabSize: 6000, NumTopics: 24, NumConcepts: 1200})
		benchE = BuildCorpus(benchW, CorpusConfig{Seed: 72})
	}
	return benchW, benchE
}

// BenchmarkResultCount measures the searchengine_phrase feature query on the
// paper-scale corpus, cycling over every concept name — the access pattern
// of the batch feature extractor. Guarded in CI against
// BENCH.baseline.json (DESIGN.md §10).
func BenchmarkResultCount(b *testing.B) {
	w, e := paperScaleEngine(b)
	names := make([]string, len(w.Concepts))
	for i := range w.Concepts {
		names[i] = w.Concepts[i].Name
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.ResultCount(names[i%len(names)])
	}
}

// BenchmarkPhraseEval measures the galloping positional intersection itself
// — tokenize, intern, leapfrog, every hit's positions checked and scored by
// the exhaustive (k ≤ 0) form of view.topHits — bypassing the ResultCount
// memo cache, so regressions in the cold evaluation path can't hide behind
// cache hits.
func BenchmarkPhraseEval(b *testing.B) {
	w, e := paperScaleEngine(b)
	names := make([]string, len(w.Concepts))
	for i := range w.Concepts {
		names[i] = w.Concepts[i].Name
	}
	v := e.cur.Load()
	sc := getScratch()
	defer putScratch(sc)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		terms := textproc.Words(names[i%len(names)])
		v.topHits(terms, e.internIDs(terms, sc), 0, sc)
	}
}

// BenchmarkIndexSize publishes the deterministic index-size accounting as
// custom metrics (frozen-bytes, raw-bytes, compression-ratio,
// resident-bytes: the base segment's term headers plus arenas, and
// forward-bytes: the documents' uvarint token arena). The corpus is seeded,
// so the sizes are byte-exact across machines — BENCH.baseline.json guards
// frozen-bytes, resident-bytes and forward-bytes against growth.
func BenchmarkIndexSize(b *testing.B) {
	_, e := paperScaleEngine(b)
	st := e.Stats()
	if st.FrozenBytes >= st.RawBytes {
		b.Fatalf("frozen index must be smaller than raw postings: %+v", st)
	}
	b.ReportMetric(float64(st.FrozenBytes), "frozen-bytes")
	b.ReportMetric(float64(st.RawBytes), "raw-bytes")
	b.ReportMetric(float64(st.FrozenBytes)/float64(st.RawBytes), "compression-ratio")
	b.ReportMetric(float64(st.ResidentBytes), "resident-bytes")
	b.ReportMetric(float64(st.ForwardBytes), "forward-bytes")
	for i := 0; i < b.N; i++ {
		_ = e.Stats()
	}
}

// BenchmarkSearchTopK measures ranked phrase retrieval at snippet-mining
// depth (the per-concept cost of the relevance miner's Snippets pass).
func BenchmarkSearchTopK(b *testing.B) {
	w, e := paperScaleEngine(b)
	names := make([]string, len(w.Concepts))
	for i := range w.Concepts {
		names[i] = w.Concepts[i].Name
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Search(names[i%len(names)], 100)
	}
}

// BenchmarkBuildCorpus builds the paper-scale corpus of paperScaleEngine
// from its world: composing every document and bulk-indexing it. make
// bench guards its B/op and allocs/op against the build that composed each
// document as text and tokenized it again (BENCH.baseline.json).
func BenchmarkBuildCorpus(b *testing.B) {
	w := world.New(world.Config{Seed: 71, VocabSize: 6000, NumTopics: 24, NumConcepts: 1200})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BuildCorpus(w, CorpusConfig{Seed: 72})
	}
}
