// Package searchsim implements the search-engine substrate the paper mines:
// a positional inverted index over a (synthetic) web corpus, phrase queries
// with result counts (the searchengine_phrase feature), result snippets (the
// paper's best relevance-mining resource), Prisma-style pseudo-relevance
// feedback, and related-query suggestions.
//
// The index interns every corpus term to a dense uint32 id, evaluates phrase
// queries by positional intersection — rarest term drives, the others gallop
// — and serves frozen postings from Golomb-compressed lists with skip blocks
// (index.go). The engine is an LSM-style two-tier store (segment.go) with one
// lifecycle: it is live from NewEngine on. Add appends to a mutable memtable
// that seals into raw segments, and compaction folds segment runs into
// compressed form; BuildCorpus, which has a whole corpus in hand, builds the
// compressed base segment directly (bulkindex.go). Readers always query an
// atomically-published immutable view — no lock on the query path — and
// results are bit-identical however the same docs arrived; the differential
// tests pin that.
package searchsim

import (
	"encoding/binary"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"contextrank/internal/match"
	"contextrank/internal/textproc"
)

// noTermID marks a query term absent from the corpus vocabulary.
const noTermID = match.NoID

// memFlushDocs is the mutable memtable's auto-seal threshold: once this many
// docs accumulate the memtable seals into a raw segment and becomes visible.
// Commit seals and publishes earlier on demand.
const memFlushDocs = 256

// Engine is the simulated search engine. Queries run lock-free against the
// published view. Add appends to a writer-private memtable that seals into
// immutable raw segments (at memFlushDocs, or on Commit), and Compact folds
// segment runs into compressed form in the background. One writer at a time;
// any number of concurrent readers.
//
// ResultCount is memoized per view — the memo is sound because a view's
// visible index never changes; a new memo is installed exactly when the
// visibility horizon moves (Epoch tracks that for external caches).
type Engine struct {
	// docs is the writer's document store (doc.go). It is append-only;
	// published views expose the visible prefix, which readers reach
	// through Doc and NumDocs.
	docs []docRec

	vocab *match.Vocab

	// cur is the published snapshot readers query: never nil, swapped
	// atomically and never mutated in place.
	cur atomic.Pointer[view]

	// mu serializes writers (Add/Commit/compaction install). Never taken on
	// the query path.
	mu   sync.Mutex
	segs []*segment // published segment stack (writer's master copy)
	// The memtable: memLists[i] holds the postings of term memTerms[i], in
	// first-touch order, and memSlot maps a term id to 1+i (0 = untouched),
	// 4 bytes per vocabulary term. Sealing moves out only the touched lists
	// and clears their slots, so per-commit cost is O(touched terms), never
	// O(vocabulary).
	memSlot  []int32
	memTerms []uint32
	memLists []postingList
	memBase  int32 // global doc id of the memtable's first doc
	memDocs  int
	epoch    uint64

	// pending holds the memtable docs' token ids as uvarints, back to back,
	// and pendEnd[i] is where memtable doc i's bytes end. sealLocked copies
	// them into one exact-size arena, so the buffer is reused across seals.
	pending []byte
	pendEnd []int
	forward int // arena bytes of the sealed documents (IndexStats.ForwardBytes)

	stopID []bool     // term id -> is a stopword; grown as terms are interned
	stats  IndexStats // size accounting of the bulk-built base segment

	// Live counters (atomics: read by Stats concurrently with the writer).
	memDocsLive atomic.Int32
	ingested    atomic.Int64
	compactions atomic.Int64
	cacheHits   atomic.Int64
	cacheMisses atomic.Int64

	// compactMu admits one compactor at a time so concurrent Compact calls
	// never merge overlapping runs. Writers and readers never take it.
	compactMu sync.Mutex
}

// NewEngine creates an empty live engine: every query answers (with nothing)
// from the start, and documents become visible as Add seals them.
func NewEngine() *Engine {
	e := &Engine{vocab: match.NewVocab()}
	e.cur.Store(&view{vocab: e.vocab, cache: newCountCache(&e.cacheHits, &e.cacheMisses)})
	return e
}

// Add indexes a document and returns its ID. The id is assigned immediately;
// the doc lands in the mutable memtable and becomes visible at the next seal
// (memFlushDocs) or Commit.
func (e *Engine) Add(text string, topic int) int {
	tokens := textproc.Words(text)
	e.mu.Lock()
	id := len(e.docs)
	local := int32(id) - e.memBase
	for pos, term := range tokens {
		tid := e.vocab.Intern(term)
		e.pending = binary.AppendUvarint(e.pending, uint64(tid))
		if int(tid) >= len(e.memSlot) {
			e.memSlot = append(e.memSlot, make([]int32, e.vocab.Len()-len(e.memSlot))...)
		}
		slot := e.memSlot[tid]
		if slot == 0 {
			e.memTerms = append(e.memTerms, tid)
			e.memLists = append(e.memLists, postingList{})
			slot = int32(len(e.memLists))
			e.memSlot[tid] = slot
		}
		e.memLists[slot-1].add(local, int32(pos))
	}
	for len(e.stopID) < e.vocab.Len() {
		e.stopID = append(e.stopID, textproc.IsStopword(e.vocab.Token(uint32(len(e.stopID)))))
	}
	e.docs = append(e.docs, docRec{n: int32(len(tokens)), topic: int32(topic)})
	e.pendEnd = append(e.pendEnd, len(e.pending))
	e.memDocs++
	e.memDocsLive.Store(int32(e.memDocs))
	e.ingested.Add(1)
	if e.memDocs >= memFlushDocs {
		e.sealLocked()
		e.publishLocked()
	}
	e.mu.Unlock()
	return id
}

// sealLocked transfers the memtable's touched posting lists, in term order,
// into an immutable sparse raw segment, and its documents' token ids into
// one exact-size arena. Caller holds mu. The transferred lists are never
// appended to again — their slots are cleared so the next Add builds fresh
// lists — which is what lets views share them without synchronization. Cost
// is O(touched terms + the documents' tokens), independent of vocabulary
// size.
func (e *Engine) sealLocked() {
	if e.memDocs == 0 {
		return
	}
	arena := make([]byte, len(e.pending))
	copy(arena, e.pending)
	start := 0
	for i, end := range e.pendEnd {
		e.docs[int(e.memBase)+i].toks = arena[start:end:end]
		start = end
	}
	e.forward += len(arena)
	e.pending, e.pendEnd = e.pending[:0], e.pendEnd[:0]
	terms := slices.Clone(e.memTerms)
	slices.Sort(terms)
	lists := make([]postingList, len(terms))
	for i, tid := range terms {
		lists[i] = e.memLists[e.memSlot[tid]-1]
		e.memSlot[tid] = 0
	}
	seg := newSparseRawSegment(e.memBase, int32(e.memDocs), terms, lists)
	e.segs = append(e.segs, seg)
	e.memBase += int32(e.memDocs)
	e.memTerms = e.memTerms[:0]
	clear(e.memLists) // drop the moved lists' arrays from the scratch
	e.memLists = e.memLists[:0]
	e.memDocs = 0
	e.memDocsLive.Store(0)
}

// publishLocked swaps in a new view over the current segment stack. Caller
// holds mu. The epoch — and with it the ResultCount memo — rolls over
// exactly when the visibility horizon moves; a pure compaction republish
// keeps both, because compaction never changes any query answer.
func (e *Engine) publishLocked() {
	old := e.cur.Load()
	horizon := int(e.memBase)
	cache := old.cache
	if len(old.docs) != horizon {
		e.epoch++
		cache = newCountCache(&e.cacheHits, &e.cacheMisses)
	}
	e.cur.Store(&view{
		segs:    append([]*segment(nil), e.segs...),
		docs:    e.docs[:horizon:horizon],
		stopID:  e.stopID[:len(e.stopID):len(e.stopID)],
		vocab:   e.vocab,
		epoch:   e.epoch,
		cache:   cache,
		forward: e.forward,
	})
}

// Commit seals any pending memtable docs and publishes them, returning the
// resulting epoch.
func (e *Engine) Commit() uint64 {
	e.mu.Lock()
	e.sealLocked()
	e.publishLocked()
	ep := e.epoch
	e.mu.Unlock()
	return ep
}

// Epoch returns the published visibility epoch: 0 on an empty engine, then a
// counter that increments exactly when new documents become visible.
// External caches keyed by (query, epoch) are invalidated precisely when
// answers can change.
func (e *Engine) Epoch() uint64 { return e.cur.Load().epoch }

// Compact runs one size-tiered compaction round: if the newest segments form
// a mergeable run (compactRange), they are merged off-lock into one frozen
// segment and the result is spliced in. Returns whether a merge ran.
// Concurrent with readers (always) and with the writer (the merge itself
// runs without mu; only the splice takes it). One compactor at a time.
func (e *Engine) Compact(workers int) bool {
	e.compactMu.Lock()
	defer e.compactMu.Unlock()
	e.mu.Lock()
	segs := append([]*segment(nil), e.segs...)
	e.mu.Unlock()
	lo, hi := compactRange(segs)
	if hi-lo < 2 {
		return false
	}
	run := segs[lo:hi]
	var merged *segment
	if width := run[len(run)-1].base + run[len(run)-1].nDocs - run[0].base; allRaw(run) && int(width) < majorMergeDocs {
		merged = mergeRawSegments(run, workers)
	} else {
		merged = mergeSegments(run, workers)
	}
	e.installMerged(segs, lo, hi, merged)
	return true
}

// CompactAll merges the whole published segment stack into one frozen
// segment — the full-merge used by the differential suite to compare an
// Add-grown engine's frozen image against the bulk-built one. Pending memtable
// docs are not included; Commit first to publish them. Returns whether a
// merge ran (false when the stack is already a single frozen segment).
func (e *Engine) CompactAll() bool {
	e.compactMu.Lock()
	defer e.compactMu.Unlock()
	e.mu.Lock()
	segs := append([]*segment(nil), e.segs...)
	e.mu.Unlock()
	if len(segs) == 0 || (len(segs) == 1 && segs[0].frozen != nil) {
		return false
	}
	merged := mergeSegments(segs, 0)
	e.installMerged(segs, 0, len(segs), merged)
	return true
}

// installMerged splices merged over snapshot[lo:hi] in the live stack. The
// writer may have sealed new segments since the snapshot was taken, but
// seals only append — the spliced region is position-stable, and the
// pointer check turns any violation of that invariant into a loud failure
// instead of silent index corruption.
func (e *Engine) installMerged(snapshot []*segment, lo, hi int, merged *segment) {
	e.mu.Lock()
	if e.segs[lo] != snapshot[lo] || e.segs[hi-1] != snapshot[hi-1] {
		e.mu.Unlock()
		panic("searchsim: segment stack mutated under compaction")
	}
	ns := make([]*segment, 0, len(e.segs)-(hi-lo)+1)
	ns = append(ns, e.segs[:lo]...)
	ns = append(ns, merged)
	ns = append(ns, e.segs[hi:]...)
	e.segs = ns
	e.publishLocked()
	e.mu.Unlock()
	e.compactions.Add(1)
}

// NumDocs returns the number of visible documents.
func (e *Engine) NumDocs() int { return len(e.cur.Load().docs) }

// Vocab returns the corpus term vocabulary (term string ↔ dense id). Safe
// for concurrent lookups while ingest runs.
func (e *Engine) Vocab() *match.Vocab { return e.vocab }

// DocFreq returns the number of visible documents containing term: the
// length of its posting list, the paper's "term-document frequency" over
// "all the web documents that are indexed". Lock-free, like every query.
func (e *Engine) DocFreq(term string) int { return e.cur.Load().docFreq(term) }

// IDF returns term's smoothed inverse document frequency over the visible
// documents, ln((N+1)/(df+1)) + 1: strictly positive and defined for unseen
// terms. Search ranking, the relevance miners and the concept-vector
// baseline all weigh terms with it. Lock-free, like every query.
func (e *Engine) IDF(term string) float64 { return e.cur.Load().idf(term) }

// Doc returns a copy of the visible document with the given ID; ok is
// false when no visible document has it.
func (e *Engine) Doc(id int) (d Doc, ok bool) {
	docs := e.cur.Load().docs
	if id < 0 || id >= len(docs) {
		return Doc{}, false
	}
	r := docs[id]
	return Doc{ID: id, Topic: int(r.topic), toks: r.toks, n: int(r.n)}, true
}

// IndexStats reports index size and cache accounting (surfaced in /statz).
type IndexStats struct {
	Docs      int `json:"docs"`
	Terms     int `json:"terms"`
	Postings  int `json:"postings"`  // (term, doc) pairs
	Positions int `json:"positions"` // token occurrences

	// RawBytes is the int32 payload of the uncompressed posting lists;
	// FrozenBytes is the resident footprint of the Golomb streams plus skip
	// tables. Both are captured by BuildCorpus over the base segment, as are
	// Postings and Positions (segments sealed by Add are excluded so the
	// compression accounting stays comparable across runs; all are zero on
	// an engine grown by Add alone). BitmapTerms counts the dense terms
	// whose frozen doc stream is a bitmap rather than a Golomb gap list.
	RawBytes    int `json:"raw_bytes"`
	FrozenBytes int `json:"frozen_bytes"`
	BitmapTerms int `json:"bitmap_terms"`

	// ResidentBytes is what the published segment stack's postings hold in
	// memory: each frozen segment's term headers and arenas, each raw
	// segment's term table and lists by capacity. Each segment records its
	// share once, when it is built; pending memtable docs are excluded.
	ResidentBytes int `json:"resident_bytes"`

	// ForwardBytes is what the visible documents' token ids hold: the
	// exact-size uvarint arenas the bulk build and each seal write.
	ForwardBytes int `json:"forward_bytes"`

	// Live two-tier accounting: the published segment stack, pending
	// (not yet visible) memtable docs, the visibility epoch, and the
	// cumulative ingest/compaction counters.
	Segments    int    `json:"segments"`
	MemDocs     int    `json:"mem_docs"`
	Epoch       uint64 `json:"epoch"`
	Ingested    int64  `json:"ingested_docs"`
	Compactions int64  `json:"compactions"`

	CacheHits   int64 `json:"result_count_cache_hits"`
	CacheMisses int64 `json:"result_count_cache_misses"`
}

// Stats returns current index statistics. Safe to call concurrently with
// ingest and queries.
func (e *Engine) Stats() IndexStats {
	v := e.cur.Load()
	st := e.stats
	st.Docs = len(v.docs)
	st.Segments = len(v.segs)
	st.ForwardBytes = v.forward
	for _, s := range v.segs {
		st.ResidentBytes += s.resident
	}
	st.Epoch = v.epoch
	st.MemDocs = int(e.memDocsLive.Load())
	st.Ingested = e.ingested.Load()
	st.Compactions = e.compactions.Load()
	st.Terms = e.vocab.Len()
	st.CacheHits = e.cacheHits.Load()
	st.CacheMisses = e.cacheMisses.Load()
	return st
}

// internIDs maps query terms to vocabulary ids in sc.ids (absent terms map
// to noTermID; phrase evaluation treats them as empty posting lists).
func (e *Engine) internIDs(terms []string, sc *evalScratch) []uint32 {
	ids := sc.ids[:0]
	for _, t := range terms {
		ids = append(ids, e.vocab.ID(t))
	}
	sc.ids = ids
	return ids
}

// ResultCount returns the number of documents matching phrase as an exact
// phrase query — the paper's interestingness feature (4)
// searchengine_phrase ("very specific concepts would return fewer results
// than the more general concepts"). The count is memoized in the view's
// sharded cache, sound because a view never changes. The batch feature
// extractor asks once per concept, behind core's Fields cache, so the memo
// pays off only for a caller that repeats a phrase within one epoch, such
// as BenchmarkResultCount.
func (e *Engine) ResultCount(phrase string) int {
	v := e.cur.Load()
	if n, ok := v.cache.get(phrase); ok {
		return n
	}
	sc := getScratch()
	n := v.countPhraseDocs(e.internIDs(textproc.Words(phrase), sc), sc)
	putScratch(sc)
	v.cache.put(phrase, n)
	return n
}

// ResultCountAnyOrder returns the number of documents containing all the
// phrase's terms in any order (a "regular query"). The paper tried this
// variant and eliminated it during feature selection; it is kept for the
// ablation benches.
func (e *Engine) ResultCountAnyOrder(phrase string) int {
	terms := textproc.Words(phrase)
	if len(terms) == 0 {
		return 0
	}
	v := e.cur.Load()
	sc := getScratch()
	defer putScratch(sc)
	// Dedup while interning; one absent term empties the conjunction.
	ids := sc.ids[:0]
	for _, t := range terms {
		id := e.vocab.ID(t)
		if id == noTermID {
			return 0
		}
		dup := false
		for _, x := range ids {
			if x == id {
				dup = true
				break
			}
		}
		if !dup {
			ids = append(ids, id)
		}
	}
	sc.ids = ids
	if len(ids) == 1 {
		// Single distinct term: the answer is its document frequency — no
		// intersection machinery needed.
		return v.df(ids[0])
	}
	return v.intersectCount(ids, sc)
}

// Result is one ranked search result.
type Result struct {
	DocID int
	Score float64
}

// sortTopK sorts results by (score desc, doc asc) — a total order, doc ids
// being unique — and keeps the first k (all of them when k <= 0).
func sortTopK(results []Result, k int) []Result {
	sort.Slice(results, func(i, j int) bool {
		if results[i].Score != results[j].Score {
			return results[i].Score > results[j].Score
		}
		return results[i].DocID < results[j].DocID
	})
	if k > 0 && len(results) > k {
		results = results[:k]
	}
	return results
}

// rankHits scores phrase hits with the tf·idf-flavoured formula (phrase
// occurrences weighted by the rarity of the phrase's terms, normalized by
// document length) and returns up to k results sorted by (score desc, doc
// asc). The idf sum runs over terms in query order so float accumulation is
// reproducible. The result slice is always freshly allocated.
//
//kw:fresh
func (v *view) rankHits(terms []string, hits []phraseHit, k int) []Result {
	if len(hits) == 0 {
		return nil
	}
	idf := 0.0
	for _, t := range terms {
		idf += v.idf(t)
	}
	results := make([]Result, 0, len(hits))
	for _, h := range hits {
		docLen := v.docs[h.doc].n
		if docLen == 0 {
			continue
		}
		score := float64(h.count) * idf / (1 + float64(docLen)/200)
		results = append(results, Result{DocID: h.doc, Score: score})
	}
	return sortTopK(results, k)
}

// Search runs a phrase query and returns up to k results ranked by the
// tf·idf-flavoured score; k ≤ 0 returns every result.
func (e *Engine) Search(phrase string, k int) []Result {
	terms := textproc.Words(phrase)
	v := e.cur.Load()
	sc := getScratch()
	defer putScratch(sc)
	hits := v.phraseHits(e.internIDs(terms, sc), sc)
	return v.rankHits(terms, hits, k)
}

// SearchAnyTerm runs a bag-of-words (OR) query: documents containing any of
// the query terms, ranked by summed tf·idf with length normalization. This
// is the broad retrieval classic pseudo-relevance feedback runs on — and the
// source of the topic drift that makes feedback terms noisier than
// phrase-result snippets.
func (e *Engine) SearchAnyTerm(query string, k int) []Result {
	terms := textproc.Words(query)
	if len(terms) == 0 {
		return nil
	}
	v := e.cur.Load()
	sc := getScratch()
	defer putScratch(sc)
	scores := make(map[int]float64)
	seen := make(map[string]bool, len(terms))
	var c termCursor
	for _, t := range terms {
		if seen[t] || textproc.IsStopword(t) {
			continue
		}
		seen[t] = true
		idf := v.idf(t)
		if !c.init(v, e.vocab.ID(t)) {
			continue
		}
		// Sequential walk: only doc and frequency streams are decoded —
		// position data stays untouched on the OR path.
		for doc, ok := c.seekGEQ(0); ok; doc, ok = c.seekGEQ(doc + 1) {
			docLen := v.docs[doc].n
			if docLen == 0 {
				continue
			}
			scores[int(doc)] += float64(c.freq()) * idf / (1 + float64(docLen)/200)
		}
	}
	results := make([]Result, 0, len(scores))
	for doc, s := range scores {
		results = append(results, Result{DocID: doc, Score: s})
	}
	return sortTopK(results, k)
}

// SnippetWidth is the number of tokens of context on each side of the first
// phrase occurrence included in a snippet.
const SnippetWidth = 20

// visitHits evaluates phrase once against one view, ranks the top-k results,
// and calls visit for each result in rank order with its snippet window
// [lo, hi) — SnippetWidth tokens either side of the first phrase
// occurrence, recovered from the phrase hit, so the postings are never
// rescanned — and the document's first hi token ids, decoded into pooled
// scratch. Shared kernel of Snippets and VisitSnippetTokens; evaluating and
// rendering against the same view is what keeps a mid-swap query internally
// consistent.
func (v *view) visitHits(e *Engine, terms []string, k int, visit func(tokens []uint32, lo, hi int)) {
	sc := getScratch()
	defer putScratch(sc)
	hits := v.phraseHits(e.internIDs(terms, sc), sc)
	results := v.rankHits(terms, hits, k)
	for _, r := range results {
		// hits are in ascending doc order; recover this result's hit to
		// reuse its first-occurrence position.
		i := sort.Search(len(hits), func(i int) bool { return hits[i].doc >= r.DocID })
		at := int(hits[i].first)
		d := &v.docs[r.DocID]
		hi := min(at+len(terms)+SnippetWidth, int(d.n))
		sc.toks = decodeUvarints(sc.toks[:0], d.toks, hi)
		visit(sc.toks, max(at-SnippetWidth, 0), hi)
	}
}

// Snippets returns the snippets of the top-k results for phrase; k ≤ 0
// returns the snippets of every result. The paper uses the snippets of the
// first hundred results as the best resource for relevant-keyword mining.
func (e *Engine) Snippets(phrase string, k int) []string {
	terms := textproc.Words(phrase)
	v := e.cur.Load()
	out := make([]string, 0, max(k, 0))
	v.visitHits(e, terms, k, func(tokens []uint32, lo, hi int) {
		var b strings.Builder
		for i := lo; i < hi; i++ {
			if i > lo {
				b.WriteByte(' ')
			}
			b.WriteString(v.vocab.Token(tokens[i]))
		}
		out = append(out, b.String())
	})
	return out
}

// VisitSnippetTokens is the string-free twin of Snippets for the interned
// relevance miner: visit is called once per top-k result (every result when
// k ≤ 0) in rank order with the document's interned token ids, at least up
// to hi, and the snippet window bounds [lo, hi) — the window Snippets
// renders. The token slice is scratch, decoded from the document's arena
// for this call: it is valid only during the visit and must not be
// retained.
func (e *Engine) VisitSnippetTokens(phrase string, k int, visit func(tokens []uint32, lo, hi int)) {
	e.cur.Load().visitHits(e, textproc.Words(phrase), k, visit)
}
