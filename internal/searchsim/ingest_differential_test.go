package searchsim

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"
)

// ingestScript grows an engine the way a live deployment does: a bulk build
// over the first 80 docs, then uneven batches of Add, each followed by a
// Commit and a size-tiered Compact at the given width, and a final Commit
// that publishes the rest.
func ingestScript(docs []textDoc, workers int) *Engine {
	e := bulkEngine(docs[:80])
	next := 80
	for _, batch := range []int{3, 17, 1, 29, 8, 40, 2, 60, 25, 35} {
		hi := min(next+batch, len(docs))
		for ; next < hi; next++ {
			e.Add(docs[next].text(), docs[next].topic)
		}
		e.Commit()
		e.Compact(workers)
	}
	for ; next < len(docs); next++ {
		e.Add(docs[next].text(), docs[next].topic)
	}
	e.Commit()
	return e
}

// TestIngestDifferential is the end-to-end equivalence pin for the live
// two-tier engine (wired into the CI parallel-equivalence matrix): after N
// appends, K commits, interleaved size-tiered compactions and a final full
// merge — all at several widths — every observable answer, every
// document's encoded token ids and the frozen image itself must be
// byte-identical to a from-scratch bulk build
// over the concatenated doc stream. TestDifferentialDocFreq runs the same
// script against the oracle's document frequencies.
func TestIngestDifferential(t *testing.T) {
	docs := randomRawDocs(37, 300)
	want := fromScratch(docs)

	for _, workers := range []int{1, 4, 0} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			setGOMAXPROCS(t, procsFor(workers))
			e := ingestScript(docs, workers)
			if n := e.NumDocs(); n != len(docs) {
				t.Fatalf("visible docs = %d, want %d", n, len(docs))
			}

			// Answers and documents over the still-segmented stack.
			checkAnswers(t, "segmented", e, want)
			docsEqual(t, "segmented", e, want)

			// Full merge: the compacted image equals the from-scratch build.
			e.CompactAll()
			st := e.Stats()
			if st.Segments != 1 {
				t.Fatalf("CompactAll left %d segments", st.Segments)
			}
			if !reflect.DeepEqual(e.segs[0].frozen, want.segs[0].frozen) {
				t.Fatal("compacted frozen image differs from the from-scratch build")
			}
			checkAnswers(t, "compacted", e, want)
		})
	}
}

// checkAnswers sweeps the boundary query mix and demands byte-identical
// results — counts, ranked lists with scores and tie order, snippets, OR
// retrieval — between the live engine and the from-scratch reference.
func checkAnswers(t *testing.T, label string, got, want *Engine) {
	t.Helper()
	for _, q := range boundaryQueries() {
		if g, w := got.ResultCount(q), want.ResultCount(q); g != w {
			t.Fatalf("%s: ResultCount(%q) = %d, want %d", label, q, g, w)
		}
		if g, w := got.ResultCountAnyOrder(q), want.ResultCountAnyOrder(q); g != w {
			t.Fatalf("%s: ResultCountAnyOrder(%q) = %d, want %d", label, q, g, w)
		}
		for _, k := range []int{3, 100} {
			if g, w := got.Search(q, k), want.Search(q, k); !reflect.DeepEqual(g, w) {
				t.Fatalf("%s: Search(%q, %d) diverged", label, q, k)
			}
		}
		for _, k := range []int{3, 25} {
			if g, w := got.Snippets(q, k), want.Snippets(q, k); !reflect.DeepEqual(g, w) {
				t.Fatalf("%s: Snippets(%q, %d) diverged", label, q, k)
			}
		}
		if g, w := got.SearchAnyTerm(q, 50), want.SearchAnyTerm(q, 50); !reflect.DeepEqual(g, w) {
			t.Fatalf("%s: SearchAnyTerm(%q) diverged", label, q)
		}
	}
}

// procsFor is the GOMAXPROCS a compaction width runs beside: the width
// itself, or every core for width 0, so the bulk build and CompactAll fan
// out as wide as Compact does.
func procsFor(workers int) int {
	if workers > 0 {
		return workers
	}
	return runtime.NumCPU()
}
