package searchsim

import (
	"fmt"
	"reflect"
	"testing"
)

// TestIngestDifferential is the end-to-end equivalence pin for the live
// two-tier engine (wired into the CI parallel-equivalence matrix): after N
// appends, K commits, interleaved size-tiered compactions and a final full
// merge — all at several worker counts — every observable answer and the
// frozen image itself must be byte-identical to a from-scratch bulk build
// over the concatenated doc stream.
func TestIngestDifferential(t *testing.T) {
	docs := randomRawDocs(37, 300)
	want := fromScratch(docs)
	wantDict := want.Dictionary()

	for _, workers := range []int{1, 4, 0} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			e := newBulkEngine(docs[:80], workers)

			// Uneven batches, compaction interleaved with appends.
			next := 80
			for _, batch := range []int{3, 17, 1, 29, 8, 40, 2, 60, 25, 35} {
				hi := next + batch
				if hi > len(docs) {
					hi = len(docs)
				}
				for ; next < hi; next++ {
					e.Add(docs[next].text, docs[next].topic)
				}
				e.Commit()
				e.Compact(workers)
			}
			for ; next < len(docs); next++ {
				e.Add(docs[next].text, docs[next].topic)
			}
			e.Commit()

			if n := e.NumDocs(); n != len(docs) {
				t.Fatalf("visible docs = %d, want %d", n, len(docs))
			}

			// Answers over the still-segmented stack.
			checkAnswers(t, "segmented", e, want)

			// Dictionary document frequencies track the live appends.
			dict := e.Dictionary()
			if g, w := dict.NumDocs(), wantDict.NumDocs(); g != w {
				t.Fatalf("dict docs = %d, want %d", g, w)
			}
			for id := uint32(0); int(id) < want.Vocab().Len(); id++ {
				term := want.Vocab().Token(id)
				if g, w := dict.DocFreq(term), wantDict.DocFreq(term); g != w {
					t.Fatalf("dict df(%q) = %d, want %d", term, g, w)
				}
			}

			// Full merge: the compacted image equals the from-scratch build.
			e.CompactAll(workers)
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
		if g, w := got.Search(q, 100), want.Search(q, 100); !reflect.DeepEqual(g, w) {
			t.Fatalf("%s: Search(%q) diverged", label, q)
		}
		if g, w := got.Snippets(q, 25), want.Snippets(q, 25); !reflect.DeepEqual(g, w) {
			t.Fatalf("%s: Snippets(%q) diverged", label, q)
		}
		if g, w := got.SearchAnyTerm(q, 50), want.SearchAnyTerm(q, 50); !reflect.DeepEqual(g, w) {
			t.Fatalf("%s: SearchAnyTerm(%q) diverged", label, q)
		}
	}
}
