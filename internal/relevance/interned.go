package relevance

import (
	"cmp"
	"math"
	"slices"
	"strings"

	"contextrank/internal/corpus"
	"contextrank/internal/match"
	"contextrank/internal/searchsim"
	"contextrank/internal/stem"
	"contextrank/internal/textproc"
)

// This file is the miner. Per-term facts — idf, document frequency, stopword
// status, stem — are computed once per vocabulary id (termTable), and each
// concept accumulates raw scores into pooled id-keyed scratch (mineScratch)
// instead of a string-keyed map per concept. Floats accumulate in
// ascending-vocabulary-id order, the order the string oracles in
// oracle_test.go sort into, so the differential tests can demand bit
// equality.

// termFacts caches, per vocabulary id, everything finalizeIDs needs to know
// about a term: its stem (as an id in termTable.stems), its engine-corpus
// idf and document frequency, and whether it is a stopword.
type termFacts struct {
	stemOf []uint32  // term id -> stem id in termTable.stems; match.NoID if the stem is empty
	idf    []float64 // engine smoothed IDF
	df     []int32   // engine document frequency
	stop   []bool    // textproc.IsStopword
}

// termTable holds the miner's per-id fact tables: one for the engine
// vocabulary (snippets and Prisma terms) and one for the query-log
// vocabulary (suggestion terms), plus the stem dictionary both fact tables
// intern into (Miner.Dict). Built once per miner, on first Mine.
type termTable struct {
	stems *match.Vocab
	eng   termFacts
	sug   termFacts
}

// buildFacts derives the fact table for one vocabulary. Idf and document
// frequency always come from the engine — suggestion terms are scored with
// engine idf too.
func buildFacts(voc *match.Vocab, eng *searchsim.Engine, stems *match.Vocab) termFacts {
	n := voc.Len()
	f := termFacts{
		stemOf: make([]uint32, n),
		idf:    make([]float64, n),
		df:     make([]int32, n),
		stop:   make([]bool, n),
	}
	for id := 0; id < n; id++ {
		t := voc.Token(uint32(id))
		f.idf[id] = eng.IDF(t)
		f.df[id] = int32(eng.DocFreq(t))
		f.stop[id] = textproc.IsStopword(t)
		f.stemOf[id] = match.NoID
		if st := stem.Stem(t); st != "" {
			f.stemOf[id] = stems.Intern(st)
		}
	}
	return f
}

// table lazily builds the termTable over the vocabularies as they stand at
// the first Mine. The engine's keeps growing under live ingest; ids past the
// table's end are skipped where they are counted (countIDs, minePrismaIDs).
func (mn *Miner) table() *termTable {
	mn.tableOnce.Do(func() {
		tab := &termTable{stems: match.NewVocab()}
		tab.eng = buildFacts(mn.engine.Vocab(), mn.engine, tab.stems)
		if mn.suggestor != nil {
			tab.sug = buildFacts(mn.suggestor.Log().Vocab(), mn.engine, tab.stems)
		}
		mn.tbl = tab
	})
	return mn.tbl
}

// mineScratch is one worker's pooled working set. Scores are id-indexed
// dense arrays zeroed selectively through the touched lists, so releasing a
// scratch is O(touched), not O(vocabulary). All accumulated scores are
// strictly positive (counts, ln(freq+1) with freq >= 1, Prisma weights), so
// score == 0 is a valid "untouched" test.
type mineScratch struct {
	score   []float64 // engine term id -> raw score
	touched []uint32  // engine ids with score != 0
	sscore  []float64 // log term id -> raw score
	stouch  []uint32  // log ids with sscore != 0
	smark   []uint32  // log term id -> generation of last sighting
	sgen    uint32    // current per-suggestion dedupe generation
	agg     []float64 // stem id -> aggregated score
	aggT    []uint32  // stem ids with agg != 0
	cand    []Keyword // the aggregated candidates, sorted
	own     []uint32  // the concept's own stem ids
}

// getScratch takes a scratch from the pool and sizes its arrays to the fact
// tables.
func (mn *Miner) getScratch(tab *termTable) *mineScratch {
	sc, _ := mn.scratch.Get().(*mineScratch)
	if sc == nil {
		sc = new(mineScratch)
	}
	if n := len(tab.eng.idf); len(sc.score) < n {
		sc.score = make([]float64, n)
	}
	if n := len(tab.sug.idf); len(sc.sscore) < n {
		sc.sscore = make([]float64, n)
		sc.smark = make([]uint32, n)
		sc.sgen = 0
	}
	if n := tab.stems.Len(); len(sc.agg) < n {
		sc.agg = make([]float64, n)
	}
	return sc
}

// finalizeIDs turns raw id-keyed scores into the concept's keywords:
// multiply by idf, drop stopwords, corpus-wide common terms and the concept's
// own stems, aggregate same-stem scores — walking touched ids in ascending
// order, never map order, so float sums are reproducible — sort the
// candidates in the scratch by corpus.SortVector's order, and return the
// first TopM. Consumed score entries are zeroed; the result aliases the
// scratch until its next use.
func (mn *Miner) finalizeIDs(sc *mineScratch, f *termFacts, concept string, score []float64, touched []uint32) []Keyword {
	own := sc.own[:0]
	for _, t := range textproc.Words(concept) {
		if st := stem.Stem(t); st != "" {
			if sid := mn.tbl.stems.ID(st); sid != match.NoID {
				own = append(own, sid)
			}
		}
	}
	sc.own = own
	maxDF := int(MaxDocFrac * float64(mn.engine.NumDocs()))

	slices.Sort(touched)
	aggT := sc.aggT[:0]
	for _, id := range touched {
		s := score[id] * f.idf[id]
		score[id] = 0
		if f.stop[id] || int(f.df[id]) > maxDF {
			continue
		}
		sid := f.stemOf[id]
		if sid == match.NoID || slices.Contains(own, sid) {
			continue
		}
		if sc.agg[sid] == 0 {
			aggT = append(aggT, sid)
		}
		sc.agg[sid] += s
	}
	cand := sc.cand[:0]
	for _, sid := range aggT {
		cand = append(cand, Keyword{Stem: sid, Weight: sc.agg[sid]})
		sc.agg[sid] = 0
	}
	sc.aggT = aggT[:0]
	stems := mn.tbl.stems
	slices.SortFunc(cand, func(a, b Keyword) int {
		if c := cmp.Compare(b.Weight, a.Weight); c != 0 {
			return c
		}
		return strings.Compare(stems.Token(a.Stem), stems.Token(b.Stem))
	})
	sc.cand = cand
	return cand[:min(len(cand), TopM)]
}

// resolve spells keywords out through the stem dictionary, as a vector of
// exactly their length.
//
//kw:fresh
func resolve(dict *match.Vocab, ks []Keyword) corpus.Vector {
	v := make(corpus.Vector, len(ks))
	for i, k := range ks {
		v[i] = corpus.Entry{Term: dict.Token(k.Stem), Weight: k.Weight}
	}
	return v
}

// mine hands the concept's top keywords from the resource, sorted, to use,
// which must copy what it keeps: they alias the pooled scratch.
func (mn *Miner) mine(concept string, r Resource, use func(top []Keyword)) {
	tab := mn.table()
	sc := mn.getScratch(tab)
	switch r {
	case Snippets:
		use(mn.mineSnippetsIDs(sc, tab, concept))
	case Prisma:
		use(mn.minePrismaIDs(sc, tab, concept))
	default:
		use(mn.mineSuggestionsIDs(sc, tab, concept))
	}
	mn.scratch.Put(sc)
}

// countIDs adds one sighting of every id to the dense score array, extending
// touched with the ids seen for the first time.
func countIDs(score []float64, touched, ids []uint32) []uint32 {
	for _, id := range ids {
		if int(id) >= len(score) {
			// A term interned after this miner's fact table was built
			// (live ingest ran since): no idf/stem facts exist for it,
			// so it cannot contribute — skip instead of faulting.
			continue
		}
		if score[id] == 0 {
			touched = append(touched, id)
		}
		score[id]++
	}
	return touched
}

// mineSnippetsIDs: "we pretend that the returned snippets constitute a single
// document and then use a bag-of-words model. For each unique term that
// appears in this document, we compute its tf·idf score." Snippet tokens
// arrive as engine vocabulary ids and are counted straight into the dense
// score array.
func (mn *Miner) mineSnippetsIDs(sc *mineScratch, tab *termTable, concept string) []Keyword {
	touched := sc.touched[:0]
	mn.engine.VisitSnippetTokens(concept, SnippetDepth, func(tokens []uint32, lo, hi int) {
		touched = countIDs(sc.score, touched, tokens[lo:hi])
	})
	sc.touched = touched[:0]
	return mn.finalizeIDs(sc, &tab.eng, concept, sc.score, touched)
}

// MineClusters mines the relevant keywords of each cluster 0..k-1 of the
// concept's result snippets, where assign[i] is the cluster of its i-th
// snippet (Snippets(concept, SnippetDepth)): Mine's snippet mining,
// restricted to the cluster's snippets. A cluster no snippet is assigned to
// gets a nil vector. examples/senses clusters the snippets into senses.
func (mn *Miner) MineClusters(concept string, assign []int, k int) []corpus.Vector {
	// Copy every snippet's token-id window out of the visit's scratch once
	// (window i is win[off[i]:off[i+1]]); each cluster's windows are then
	// counted into the pooled scratch in turn.
	var win []uint32
	off := []int{0}
	mn.engine.VisitSnippetTokens(concept, SnippetDepth, func(tokens []uint32, lo, hi int) {
		win = append(win, tokens[lo:hi]...)
		off = append(off, len(win))
	})

	tab := mn.table()
	sc := mn.getScratch(tab)
	out := make([]corpus.Vector, k)
	for c := range out {
		assigned := false
		touched := sc.touched[:0]
		for i, a := range assign {
			if a != c {
				continue
			}
			assigned = true
			// A commit between the caller's Snippets query and the visit
			// above can shorten the result list; a missing window counts
			// nothing.
			if i+1 < len(off) {
				touched = countIDs(sc.score, touched, win[off[i]:off[i+1]])
			}
		}
		if assigned {
			out[c] = resolve(tab.stems, mn.finalizeIDs(sc, &tab.eng, concept, sc.score, touched))
		}
		sc.touched = touched[:0]
	}
	mn.scratch.Put(sc)
	return out
}

// minePrismaIDs: "We construct a single document from the concepts returned by
// Prisma for concept c_i, and compute scores s_ij based on the tf·idf
// values." Feedback entries arrive as engine vocabulary ids; an entry's
// weight acts as the term's count mass in the pseudo-document.
func (mn *Miner) minePrismaIDs(sc *mineScratch, tab *termTable, concept string) []Keyword {
	score := sc.score
	touched := sc.touched[:0]
	mn.prisma.VisitFeedback(concept, func(term uint32, weight float64) {
		if int(term) >= len(score) {
			return // interned after the fact table was built; see countIDs
		}
		if score[term] == 0 {
			touched = append(touched, term)
		}
		score[term] += weight
	})
	sc.touched = touched[:0]
	return mn.finalizeIDs(sc, &tab.eng, concept, score, touched)
}

// mineSuggestionsIDs: each unique term across the suggestions is scored
// Σ_{i=1..k} ln(query_freq_i) · idf(term), over the k suggestions containing
// it. Suggestions arrive as query-log indexes, their terms as log vocabulary
// ids; a generation-marked table counts a term once per suggestion.
func (mn *Miner) mineSuggestionsIDs(sc *mineScratch, tab *termTable, concept string) []Keyword {
	log := mn.suggestor.Log()
	stouch := sc.stouch[:0]
	mn.suggestor.VisitSuggestions(concept, searchsim.SuggestionLimit, func(qi int32, freq int) {
		sc.sgen++
		if sc.sgen == 0 { // generation wrapped: reset the mark table
			clear(sc.smark)
			sc.sgen = 1
		}
		ln := math.Log(float64(freq) + 1)
		for _, tid := range log.TermIDs(int(qi)) {
			if sc.smark[tid] == sc.sgen {
				continue
			}
			sc.smark[tid] = sc.sgen
			if sc.sscore[tid] == 0 {
				stouch = append(stouch, tid)
			}
			sc.sscore[tid] += ln
		}
	})
	sc.stouch = stouch[:0]
	return mn.finalizeIDs(sc, &tab.sug, concept, sc.sscore, stouch)
}
