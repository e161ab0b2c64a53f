package relevance

import (
	"math"
	"sort"

	"contextrank/internal/corpus"
	"contextrank/internal/searchsim"
	"contextrank/internal/stem"
	"contextrank/internal/textproc"
)

// This file holds the string-keyed reference implementations the product
// used to run before mining and context scoring moved onto interned ids:
// the three miners with their finalize step, the per-cluster mining, and the
// map-based Store.Score over ContextStems sets. They rebuild a string-keyed
// map per concept and re-derive idf, document frequency, stopword status and
// stem for every term sighting. Nothing in the product calls them; the
// differential tests (interned_test.go, relevance_test.go) pin Miner.Mine,
// Miner.MineClusters and Store.ScoreCtx to them bit for bit.

// ownStems returns the stemmed terms of the concept itself.
func ownStems(concept string) map[string]bool {
	out := make(map[string]bool)
	for _, t := range textproc.Words(concept) {
		out[stem.Stem(t)] = true
	}
	return out
}

// finalize stems raw term scores (accumulating same-stem scores), drops the
// concept's own terms, stop-words and corpus-wide common terms, sorts, and
// truncates to m.
//
// Same-stem scores accumulate in canonical order — ascending rank(term),
// where rank is the term's vocabulary id — never map-iteration order, so
// float sums are reproducible and bit-identical to finalizeIDs (which walks
// touched ids ascending).
func (mn *Miner) finalize(concept string, scores map[string]float64, rank func(string) uint32) corpus.Vector {
	own := ownStems(concept)
	maxDF := int(MaxDocFrac * float64(mn.engine.NumDocs()))
	terms := make([]string, 0, len(scores))
	for term := range scores {
		terms = append(terms, term)
	}
	sort.Slice(terms, func(i, j int) bool {
		ri, rj := rank(terms[i]), rank(terms[j])
		if ri != rj {
			return ri < rj
		}
		return terms[i] < terms[j] // NoID terms: stable fallback on text
	})
	agg := make(map[string]float64, len(scores))
	for _, term := range terms {
		s := scores[term]
		if textproc.IsStopword(term) {
			continue
		}
		if mn.engine.DocFreq(term) > maxDF {
			continue
		}
		st := stem.Stem(term)
		if st == "" || own[st] {
			continue
		}
		agg[st] += s
	}
	v := make(corpus.Vector, 0, len(agg))
	for t, s := range agg {
		v = append(v, corpus.Entry{Term: t, Weight: s})
	}
	corpus.SortVector(v)
	if len(v) > TopM {
		v = v[:TopM]
	}
	return v
}

// engineRank orders terms by engine-vocabulary id (snippet and Prisma terms
// always come from indexed documents, so they are always in-vocabulary).
func (mn *Miner) engineRank(t string) uint32 { return mn.engine.Vocab().ID(t) }

// logRank orders terms by query-log-vocabulary id (suggestion terms come
// from log queries).
func (mn *Miner) logRank(t string) uint32 { return mn.suggestor.Log().Vocab().ID(t) }

// snippetScores is the bag-of-words tf·idf of a set of snippets taken as one
// document.
func (mn *Miner) snippetScores(snippets []string) map[string]float64 {
	counts := make(map[string]int)
	for _, s := range snippets {
		for _, t := range textproc.Words(s) {
			counts[t]++
		}
	}
	scores := make(map[string]float64, len(counts))
	for t, c := range counts {
		scores[t] = float64(c) * mn.engine.IDF(t)
	}
	return scores
}

// mineSnippets is the string reference of mineSnippetsIDs.
func (mn *Miner) mineSnippets(concept string) corpus.Vector {
	snippets := mn.engine.Snippets(concept, SnippetDepth)
	return mn.finalize(concept, mn.snippetScores(snippets), mn.engineRank)
}

// minePrisma is the string reference of minePrismaIDs. The feedback entries
// come from VisitFeedback rendered back to strings; searchsim's
// visitors_test.go pins that visitor to the map-based Prisma.Feedback.
func (mn *Miner) minePrisma(concept string) corpus.Vector {
	voc := mn.engine.Vocab()
	counts := make(map[string]float64)
	mn.prisma.VisitFeedback(concept, func(term uint32, weight float64) {
		counts[voc.Token(term)] += weight
	})
	scores := make(map[string]float64, len(counts))
	for t, c := range counts {
		scores[t] = c * mn.engine.IDF(t)
	}
	return mn.finalize(concept, scores, mn.engineRank)
}

// mineSuggestions is the string reference of mineSuggestionsIDs.
func (mn *Miner) mineSuggestions(concept string) corpus.Vector {
	suggestions := mn.suggestor.Suggest(concept, searchsim.SuggestionLimit)
	lnSum := make(map[string]float64)
	for _, s := range suggestions {
		seen := make(map[string]bool)
		for _, t := range textproc.Words(s.Text) {
			if !seen[t] {
				seen[t] = true
				lnSum[t] += math.Log(float64(s.Freq) + 1)
			}
		}
	}
	scores := make(map[string]float64, len(lnSum))
	for t, ls := range lnSum {
		scores[t] = ls * mn.engine.IDF(t)
	}
	return mn.finalize(concept, scores, mn.logRank)
}

// mineClustersRef is the string reference of MineClusters: the per-cluster
// snippet mining examples/senses ran over snippet strings.
func (mn *Miner) mineClustersRef(concept string, snippets []string, assign []int, k int) []corpus.Vector {
	out := make([]corpus.Vector, k)
	for c := range out {
		var group []string
		for i, a := range assign {
			if a == c {
				group = append(group, snippets[i])
			}
		}
		if group != nil {
			out[c] = mn.finalize(concept, mn.snippetScores(group), mn.engineRank)
		}
	}
	return out
}

// ContextStems is the stemmed content-word set of a context, the form the
// map-based Score reads.
func ContextStems(text string) map[string]bool {
	out := make(map[string]bool)
	for _, t := range textproc.ContentWords(text) {
		out[stem.Stem(t)] = true
	}
	return out
}

// ContextStemsAround is ContextStems of the local context of position
// (LocalWindow): the set SetAround marks.
func ContextStemsAround(text string, position int) map[string]bool {
	lo, hi := LocalWindow(text, position)
	return ContextStems(text[lo:hi])
}

// Score is the map-based reference of ScoreCtx: the summed confidence of the
// concept's pre-mined keywords present in a ContextStems set.
func (s *Store) Score(concept string, contextStems map[string]bool) float64 {
	score := 0.0
	for _, e := range resolve(s.dict, s.keywords[concept]) {
		if contextStems[e.Term] {
			score += e.Weight
		}
	}
	return score
}

// NormalizedScore is the map-based reference of NormalizedScoreCtx.
func (s *Store) NormalizedScore(concept string, contextStems map[string]bool) float64 {
	sum := resolve(s.dict, s.keywords[concept]).Sum()
	if sum <= 0 {
		return 0
	}
	return s.Score(concept, contextStems) / sum
}
