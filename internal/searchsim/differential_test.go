package searchsim

// Differential suite pinning the interned engine — over a raw segment stack
// and over the frozen base segment — to the seed engine's observable behavior
// byte for byte: result counts (exact and
// any-order), ranked top-k ordering including score ties, snippet text, and
// the corpus statistics (document frequency, IDF, document count).
// refEngine below is a faithful transcription of the pre-interning
// implementation (map[string][]posting, string-rescanning matchAt, a plain
// df map) kept as the executable specification.

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"contextrank/internal/textproc"
)

type refPosting struct {
	doc       int
	positions []int32
}

// refEngine is the seed implementation of the search substrate.
type refEngine struct {
	docs     [][]string // tokens per doc
	postings map[string][]refPosting
	df       map[string]int // term -> number of docs containing it
}

func newRefEngine() *refEngine {
	return &refEngine{postings: make(map[string][]refPosting), df: make(map[string]int)}
}

func (e *refEngine) add(text string) {
	tokens := textproc.Words(text)
	id := len(e.docs)
	e.docs = append(e.docs, tokens)
	for pos, term := range tokens {
		ps := e.postings[term]
		if len(ps) > 0 && ps[len(ps)-1].doc == id {
			ps[len(ps)-1].positions = append(ps[len(ps)-1].positions, int32(pos))
		} else {
			ps = append(ps, refPosting{doc: id, positions: []int32{int32(pos)}})
			e.df[term]++
		}
		e.postings[term] = ps
	}
}

// idf is the smoothed inverse document frequency over the oracle's docs.
func (e *refEngine) idf(term string) float64 {
	return math.Log(float64(len(e.docs)+1)/float64(e.df[term]+1)) + 1
}

func (e *refEngine) matchAt(doc int, terms []string, pos int32) bool {
	tokens := e.docs[doc]
	if int(pos)+len(terms) > len(tokens) {
		return false
	}
	for j, t := range terms {
		if tokens[int(pos)+j] != t {
			return false
		}
	}
	return true
}

// refHit is one document matching a phrase query: its occurrence count and
// the position of its first occurrence.
type refHit struct {
	doc   int
	count int
	first int32
}

func (e *refEngine) phraseSearch(terms []string) []refHit {
	if len(terms) == 0 {
		return nil
	}
	var hits []refHit
	for _, p := range e.postings[terms[0]] {
		count := 0
		first := int32(-1)
		for _, pos := range p.positions {
			if e.matchAt(p.doc, terms, pos) {
				count++
				if first < 0 {
					first = pos
				}
			}
		}
		if count > 0 {
			hits = append(hits, refHit{doc: p.doc, count: count, first: first})
		}
	}
	return hits
}

func (e *refEngine) resultCount(phrase string) int {
	return len(e.phraseSearch(textproc.Words(phrase)))
}

func (e *refEngine) resultCountAnyOrder(phrase string) int {
	terms := textproc.Words(phrase)
	if len(terms) == 0 {
		return 0
	}
	counts := make(map[int]int)
	seen := make(map[string]bool)
	distinct := 0
	for _, t := range terms {
		if seen[t] {
			continue
		}
		seen[t] = true
		distinct++
		for _, p := range e.postings[t] {
			counts[p.doc]++
		}
	}
	n := 0
	for _, c := range counts {
		if c == distinct {
			n++
		}
	}
	return n
}

func (e *refEngine) search(phrase string, k int) []Result {
	terms := textproc.Words(phrase)
	hits := e.phraseSearch(terms)
	if len(hits) == 0 {
		return nil
	}
	idf := 0.0
	for _, t := range terms {
		idf += e.idf(t)
	}
	results := make([]Result, 0, len(hits))
	for _, h := range hits {
		docLen := len(e.docs[h.doc])
		if docLen == 0 {
			continue
		}
		score := float64(h.count) * idf / (1 + float64(docLen)/200)
		results = append(results, Result{DocID: h.doc, Score: score})
	}
	sortResultsRef(results)
	if k > 0 && len(results) > k {
		results = results[:k]
	}
	return results
}

func (e *refEngine) snippet(docID int, phrase string) string {
	terms := textproc.Words(phrase)
	if docID < 0 || docID >= len(e.docs) || len(e.docs[docID]) == 0 {
		return ""
	}
	tokens := e.docs[docID]
	at := -1
	for i := 0; i+len(terms) <= len(tokens) && at < 0; i++ {
		match := len(terms) > 0
		for j := range terms {
			if tokens[i+j] != terms[j] {
				match = false
				break
			}
		}
		if match {
			at = i
		}
	}
	if at < 0 {
		at = 0
	}
	lo := at - SnippetWidth
	if lo < 0 {
		lo = 0
	}
	hi := at + len(terms) + SnippetWidth
	if hi > len(tokens) {
		hi = len(tokens)
	}
	return strings.Join(tokens[lo:hi], " ")
}

func (e *refEngine) snippets(phrase string, k int) []string {
	results := e.search(phrase, k)
	out := make([]string, 0, len(results))
	for _, r := range results {
		out = append(out, e.snippet(r.DocID, phrase))
	}
	return out
}

func sortResultsRef(results []Result) {
	// Same comparator as the engine: score desc, doc asc (total order —
	// doc ids are unique, so the sort is deterministic despite ties).
	for i := 1; i < len(results); i++ {
		for j := i; j > 0; j-- {
			a, b := results[j-1], results[j]
			if a.Score > b.Score || (a.Score == b.Score && a.DocID < b.DocID) {
				break
			}
			results[j-1], results[j] = b, a
		}
	}
}

// differentialPhrases assembles the query workload: every concept name plus
// adversarial variants — reversed term order (forces positional mismatches),
// sub- and super-phrases, single terms, duplicated terms, vocabulary misses,
// and the empty phrase.
func differentialPhrases(names []string) []string {
	phrases := make([]string, 0, 6*len(names)+4)
	for _, n := range names {
		phrases = append(phrases, n)
		terms := textproc.Words(n)
		if len(terms) >= 2 {
			// Reversed and partial phrases.
			rev := make([]string, len(terms))
			for i, t := range terms {
				rev[len(terms)-1-i] = t
			}
			phrases = append(phrases, strings.Join(rev, " "))
			phrases = append(phrases, strings.Join(terms[:len(terms)-1], " "))
			phrases = append(phrases, terms[len(terms)-1])
		}
		if len(terms) >= 1 {
			phrases = append(phrases, terms[0]+" "+terms[0]) // duplicate term
			phrases = append(phrases, n+" qqqunseen")        // vocabulary miss
		}
	}
	return append(phrases, "", "qqqunseen", "qqqunseen zzzunseen", "the")
}

// buildDifferentialEngines returns the seed-reference engine, an interned
// engine grown by Add (a stack of raw segments, never compacted), and the
// bulk-built interned engine (one frozen segment) over the same corpus.
func buildDifferentialEngines(t testing.TB) (*refEngine, *Engine, *Engine, []string) {
	t.Helper()
	w, built := testWorldCorpus(t)
	texts, topics := corpusTexts(w, testCorpusConfig)
	if len(texts) != built.NumDocs() {
		t.Fatalf("regenerated %d texts for %d indexed docs", len(texts), built.NumDocs())
	}
	ref := newRefEngine()
	raw := NewEngine()
	for i, text := range texts {
		ref.add(text)
		raw.Add(text, topics[i])
	}
	raw.Commit()
	names := make([]string, len(w.Concepts))
	for i := range w.Concepts {
		names[i] = w.Concepts[i].Name
	}
	return ref, raw, built, names
}

func TestDifferentialResultCounts(t *testing.T) {
	ref, raw, frozen, names := buildDifferentialEngines(t)
	if len(frozen.segs) != 1 || frozen.segs[0].frozen == nil || len(raw.segs) < 2 || !allRaw(raw.segs) {
		t.Fatal("engine segment stacks wrong: want one frozen segment against several raw ones")
	}
	for _, phrase := range differentialPhrases(names) {
		want := ref.resultCount(phrase)
		if got := raw.ResultCount(phrase); got != want {
			t.Fatalf("raw ResultCount(%q) = %d, want %d", phrase, got, want)
		}
		if got := frozen.ResultCount(phrase); got != want {
			t.Fatalf("frozen ResultCount(%q) = %d, want %d", phrase, got, want)
		}
		// Memoized second read must agree.
		if got := frozen.ResultCount(phrase); got != want {
			t.Fatalf("frozen memoized ResultCount(%q) = %d, want %d", phrase, got, want)
		}
		wantAny := ref.resultCountAnyOrder(phrase)
		if got := raw.ResultCountAnyOrder(phrase); got != wantAny {
			t.Fatalf("raw ResultCountAnyOrder(%q) = %d, want %d", phrase, got, wantAny)
		}
		if got := frozen.ResultCountAnyOrder(phrase); got != wantAny {
			t.Fatalf("frozen ResultCountAnyOrder(%q) = %d, want %d", phrase, got, wantAny)
		}
	}
	if st := frozen.Stats(); st.CacheHits == 0 || st.CacheMisses == 0 {
		t.Fatalf("memo cache not exercised: hits=%d misses=%d", st.CacheHits, st.CacheMisses)
	}
}

// differentialKs are the result depths the ranking differentials sweep:
// top-k buffers of one, two and three slots, the overlays' 3, the snippet
// miner's 100, and 0 for every result.
var differentialKs = []int{1, 2, 3, 10, 100, 0}

func TestDifferentialSearchOrdering(t *testing.T) {
	ref, raw, frozen, names := buildDifferentialEngines(t)
	for _, phrase := range differentialPhrases(names) {
		for _, k := range differentialKs {
			want := ref.search(phrase, k)
			if got := raw.Search(phrase, k); !reflect.DeepEqual(got, want) {
				t.Fatalf("raw Search(%q, %d) diverged:\n got %v\nwant %v", phrase, k, got, want)
			}
			if got := frozen.Search(phrase, k); !reflect.DeepEqual(got, want) {
				t.Fatalf("frozen Search(%q, %d) diverged:\n got %v\nwant %v", phrase, k, got, want)
			}
		}
	}
}

func TestDifferentialSnippets(t *testing.T) {
	ref, raw, frozen, names := buildDifferentialEngines(t)
	for _, phrase := range differentialPhrases(names) {
		for _, k := range differentialKs {
			want := ref.snippets(phrase, k)
			if got := raw.Snippets(phrase, k); !reflect.DeepEqual(got, want) {
				t.Fatalf("raw Snippets(%q, %d) diverged", phrase, k)
			}
			if got := frozen.Snippets(phrase, k); !reflect.DeepEqual(got, want) {
				t.Fatalf("frozen Snippets(%q, %d) diverged", phrase, k)
			}
		}
	}
}

// tieCorpus is a hand corpus of duplicate documents, all eight tokens long,
// so equal phrase counts are equal scores. Runs of count-1 copies fill a
// top-k buffer with ties before count-2 and count-3 copies arrive that must
// displace them, and copies whose first term is frequent but which hold
// the phrase zero times pass the driver's bound and fail on positions. It
// spans several skip blocks once frozen.
func tieCorpus() []textDoc {
	one := strings.Fields("alpha beta gamma delta alpha gamma delta eps")
	two := strings.Fields("alpha beta gamma alpha beta delta eps zeta")
	three := strings.Fields("alpha beta alpha beta alpha beta eps zeta")
	none := strings.Fields("beta alpha gamma delta alpha gamma eps zeta")
	docs := make([]textDoc, 100)
	for i := range docs {
		switch {
		case i%31 == 20:
			docs[i].tokens = three
		case i%7 == 3:
			docs[i].tokens = two
		case i%5 == 4:
			docs[i].tokens = none
		default:
			docs[i].tokens = one
		}
	}
	return docs
}

// TestTopHitsTiesKeepLowerDoc: on tieCorpus, where the k-th score is
// nearly always shared by later duplicates, every depth's ranking — hits,
// scores, tie order and snippets — equals the oracle's over a raw stack,
// a frozen segment, and a stack mixing the two. A document whose score
// bound equals the k-th score must not displace the lower doc id holding
// it; one whose score is higher must.
func TestTopHitsTiesKeepLowerDoc(t *testing.T) {
	docs := tieCorpus()
	ref := newRefEngine()
	raw := NewEngine()
	for i, d := range docs {
		ref.add(d.text())
		raw.Add(d.text(), 0)
		if i%9 == 8 {
			raw.Commit()
		}
	}
	raw.Commit()
	mixed := buildLiveSegmented(docs, 40, 13)
	frozen := 0
	for _, s := range mixed.segs {
		if s.frozen != nil {
			frozen++
		}
	}
	if frozen == 0 || frozen == len(mixed.segs) {
		t.Fatalf("mixed stack holds %d frozen of %d segments, want raw and frozen ones", frozen, len(mixed.segs))
	}
	engines := map[string]*Engine{"raw": raw, "frozen": bulkEngine(docs), "mixed": mixed}
	all := ref.search("alpha beta", 0)
	for _, k := range []int{1, 4} {
		if len(all) <= k || all[k-1].Score != all[k].Score {
			t.Fatalf("corpus has no tie across slot %d: %v", k, all[:min(len(all), k+1)])
		}
	}
	if got := raw.Search("alpha beta", 1); len(got) != 1 || got[0].DocID != 20 {
		t.Fatalf(`Search("alpha beta", 1) = %v, want the first count-3 copy, doc 20`, got)
	}
	for _, q := range []string{"alpha beta", "alpha", "beta", "beta alpha", "gamma delta", "alpha beta alpha", "eps zeta", "alpha alpha"} {
		for _, k := range []int{1, 2, 3, 4, 5, 10, 0} {
			want, wantSnips := ref.search(q, k), ref.snippets(q, k)
			for name, e := range engines {
				if got := e.Search(q, k); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s Search(%q, %d):\n got %v\nwant %v", name, q, k, got, want)
				}
				if got := e.Snippets(q, k); !reflect.DeepEqual(got, wantSnips) {
					t.Fatalf("%s Snippets(%q, %d) diverged", name, q, k)
				}
			}
		}
	}
}

// checkDocFreq demands that the engine's corpus statistics equal the
// oracle's own df map bit for bit: the document count, and DocFreq and IDF
// of every term the oracle has seen and of an unseen one.
func checkDocFreq(t *testing.T, label string, e *Engine, ref *refEngine) {
	t.Helper()
	if g, w := e.NumDocs(), len(ref.docs); g != w {
		t.Fatalf("%s: NumDocs = %d, want %d", label, g, w)
	}
	terms := []string{"qqqunseen"}
	for term := range ref.df {
		terms = append(terms, term)
	}
	slices.Sort(terms)
	for _, term := range terms {
		if g, w := e.DocFreq(term), ref.df[term]; g != w {
			t.Fatalf("%s: DocFreq(%q) = %d, want %d", label, term, g, w)
		}
		if g, w := e.IDF(term), ref.idf(term); math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("%s: IDF(%q) = %v, want %v", label, term, g, w)
		}
	}
}

// The published view is the only source of corpus statistics: document
// frequencies are posting-list lengths summed over the segment stack. They
// must equal the oracle's after the bulk build, over a raw segment stack,
// and after TestIngestDifferential's live script (bulk base, appends,
// commits, size-tiered compactions, then a full merge) at every worker
// count.
func TestDifferentialDocFreq(t *testing.T) {
	ref, raw, built, _ := buildDifferentialEngines(t)
	checkDocFreq(t, "bulk", built, ref)
	checkDocFreq(t, "raw stack", raw, ref)

	docs := randomRawDocs(37, 300)
	ref = newRefEngine()
	for _, d := range docs {
		ref.add(d.text())
	}
	for _, workers := range []int{1, 4, 0} {
		setGOMAXPROCS(t, procsFor(workers))
		e := ingestScript(docs, workers)
		checkDocFreq(t, fmt.Sprintf("ingest workers=%d", workers), e, ref)
		e.CompactAll()
		checkDocFreq(t, fmt.Sprintf("compacted workers=%d", workers), e, ref)
	}
}

func TestDifferentialSearchAnyTerm(t *testing.T) {
	_, raw, frozen, names := buildDifferentialEngines(t)
	// SearchAnyTerm's seed implementation is retained in the engine modulo
	// the postings representation; pin frozen to raw (raw slices are
	// the seed layout under interning).
	for _, phrase := range names {
		want := raw.SearchAnyTerm(phrase, PrismaDocDepth)
		if got := frozen.SearchAnyTerm(phrase, PrismaDocDepth); !reflect.DeepEqual(got, want) {
			t.Fatalf("SearchAnyTerm(%q) diverged between raw and frozen", phrase)
		}
	}
}

func TestFrozenStatsAndCompression(t *testing.T) {
	_, _, frozen, _ := buildDifferentialEngines(t)
	st := frozen.Stats()
	if st.FrozenBytes <= 0 || st.RawBytes <= 0 {
		t.Fatalf("size accounting missing: %+v", st)
	}
	if st.FrozenBytes >= st.RawBytes {
		t.Fatalf("frozen index (%d B) must be smaller than raw postings (%d B)", st.FrozenBytes, st.RawBytes)
	}
	if st.Postings == 0 || st.Positions < st.Postings || st.Terms == 0 || st.Docs == 0 {
		t.Fatalf("implausible stats: %+v", st)
	}
	t.Logf("index: %d docs, %d terms, %d postings, %d positions, raw %d B -> frozen %d B (%.1f%%)",
		st.Docs, st.Terms, st.Postings, st.Positions, st.RawBytes, st.FrozenBytes,
		100*float64(st.FrozenBytes)/float64(st.RawBytes))
}

// Add over the frozen base segment appends to the memtable: invisible until
// Commit, then queryable, with the epoch advancing exactly once per
// visibility change.
func TestAddAfterFreezeAppends(t *testing.T) {
	e := bulkEngine([]textDoc{{tokens: []string{"one", "two", "three"}}})
	ep0 := e.Epoch()
	if ep0 == 0 {
		t.Fatal("the bulk build must publish a nonzero epoch")
	}
	id := e.Add("four five", 0)
	if id != 1 {
		t.Fatalf("live Add assigned id %d, want 1", id)
	}
	if got := e.ResultCount("four five"); got != 0 {
		t.Fatalf("uncommitted doc visible: ResultCount = %d, want 0", got)
	}
	if e.Epoch() != ep0 {
		t.Fatalf("epoch moved without a visibility change: %d -> %d", ep0, e.Epoch())
	}
	ep1 := e.Commit()
	if ep1 != ep0+1 {
		t.Fatalf("Commit epoch = %d, want %d", ep1, ep0+1)
	}
	if got := e.ResultCount("four five"); got != 1 {
		t.Fatalf("committed doc not visible: ResultCount = %d, want 1", got)
	}
	if got := e.ResultCount("one two three"); got != 1 {
		t.Fatalf("base doc lost: ResultCount = %d, want 1", got)
	}
	if ep := e.Commit(); ep != ep1 {
		t.Fatalf("empty Commit moved the epoch: %d -> %d", ep1, ep)
	}
}
