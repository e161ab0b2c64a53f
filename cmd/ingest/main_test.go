package main

import (
	"encoding/json"
	"net/http/httptest"
	"runtime"
	"testing"

	"contextrank/internal/newsgen"
	"contextrank/internal/searchsim"
	"contextrank/internal/world"
)

// testConfig is a small world so the smoke tests run in well under a second,
// with the background compactor merging at width 2: it sets GOMAXPROCS, the
// width Compact(0) fans out to, until the test ends.
func testConfig(t *testing.T) pipelineConfig {
	prev := runtime.GOMAXPROCS(2)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	return pipelineConfig{Seed: 7, Vocab: 800, Concepts: 60, Batch: 16, Probes: 2}
}

// The pipeline must ingest the requested doc count through the live tier
// while probes read concurrently, and surface the counters in /statz.
func TestPipelineIngestsAndReports(t *testing.T) {
	p, err := newPipeline(testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	base := p.engine.Stats().Docs
	const total = 200
	p.run(total)
	p.stop()
	p.wait()

	st := p.snapshot()
	if st.Ingested != total {
		t.Fatalf("ingested = %d, want %d", st.Ingested, total)
	}
	if st.Docs != base+total {
		t.Fatalf("visible docs = %d, want %d", st.Docs, base+total)
	}
	if st.Commits == 0 || st.Epoch == 0 || st.ResidentBytes == 0 || st.ForwardBytes == 0 {
		t.Fatalf("pipeline counters missing: %+v", st)
	}
	if p.cfg.Probes > 0 && st.ProbeReads == 0 {
		t.Fatal("read probes never ran")
	}

	rec := httptest.NewRecorder()
	p.handler().ServeHTTP(rec, httptest.NewRequest("GET", "/statz", nil))
	var got map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
		t.Fatalf("statz not JSON: %v", err)
	}
	for _, key := range []string{"ingested_docs", "compactions", "segments", "mem_docs", "epoch", "ingest_docs_per_sec", "commits", "resident_bytes", "forward_bytes"} {
		if _, ok := got[key]; !ok {
			t.Fatalf("/statz missing %q: %v", key, got)
		}
	}
}

// The streamed index must answer exactly like a from-scratch build over the
// base corpus plus the same feed prefix — the cmd-level echo of the
// searchsim ingest differential, here with the real feed and background
// compaction racing the appends.
func TestPipelineMatchesFromScratch(t *testing.T) {
	cfg := testConfig(t)
	p, err := newPipeline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const total = 150
	p.run(total)
	p.stop()
	p.wait()

	// Rebuild the identical doc stream: same base corpus, same feed prefix,
	// replayed serially (GOMAXPROCS 1) with a single commit and no
	// compaction racing it.
	prev := runtime.GOMAXPROCS(1)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	w := world.New(world.Config{Seed: cfg.Seed, VocabSize: cfg.Vocab, NumConcepts: cfg.Concepts})
	want := searchsim.BuildCorpus(w, searchsim.CorpusConfig{Seed: cfg.Seed + 1})
	feed := newsgen.NewFeed(w, newsgen.Config{Seed: cfg.Seed + 2}, cfg.Batch)
	added := 0
	for added < total {
		for _, story := range feed.NextBatch() {
			want.Add(story.Text, story.Topic)
			added++
			if added >= total {
				break
			}
		}
	}
	want.Commit()

	if g, w := p.engine.NumDocs(), want.NumDocs(); g != w {
		t.Fatalf("doc count %d, want %d", g, w)
	}
	for i := 0; i < len(w.Concepts); i += 5 {
		q := w.Concepts[i].Name
		if g, want1 := p.engine.ResultCount(q), want.ResultCount(q); g != want1 {
			t.Fatalf("ResultCount(%q) = %d, want %d", q, g, want1)
		}
	}
}
