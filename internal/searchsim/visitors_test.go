package searchsim

import (
	"reflect"
	"strings"
	"testing"

	"contextrank/internal/corpus"
	"contextrank/internal/querylog"
	"contextrank/internal/textproc"
)

// Differential tests pinning the string-free visitor APIs — the relevance
// miner's inputs — to their string counterparts: identical selection, order,
// and (for Prisma) bit-identical float weights.

// Feedback is the map-based reference of VisitFeedback — the Prisma body the
// product ran before the relevance miner moved onto interned ids: up to
// PrismaFeedbackLimit feedback terms for query, scored and sorted decreasing.
func (p *Prisma) Feedback(query string) []corpus.Entry {
	queryTerms := make(map[string]bool)
	for _, t := range textproc.Words(query) {
		queryTerms[t] = true
	}
	// Feedback is generated over broad OR-retrieval at fixed depth — the
	// classic pseudo-relevance-feedback setup ("considering the top 50
	// documents in a large collection"). Unlike the phrase-result snippets,
	// this retrieval drifts onto documents that merely share a term with
	// the query, which is one reason Prisma's packs are noisier.
	results := p.engine.SearchAnyTerm(query, PrismaDocDepth)
	scores := make(map[string]float64)
	for rank, r := range results {
		doc, _ := p.engine.Doc(r.DocID)
		// Document-rank discount: earlier results contribute more.
		rankWeight := 1.0 / (1.0 + float64(rank)/10.0)
		for pos, tid := range doc.AppendTokens(nil) {
			term := p.engine.vocab.Token(tid)
			if queryTerms[term] || textproc.IsStopword(term) {
				continue
			}
			// Position factor: terms earlier in the document weigh more.
			posWeight := 1.0 / (1.0 + float64(pos)/100.0)
			scores[term] += rankWeight * posWeight
		}
	}
	// Note: Prisma's selection is driven by count, position and document
	// rank only — unlike the snippet miner it applies no global idf, so
	// common terms compete for the twenty slots. This, together with the
	// output cap, is why Prisma's keywords cover contexts worse than
	// snippet-mined ones (paper Table IV).
	entries := make(corpus.Vector, 0, len(scores))
	for t, s := range scores {
		entries = append(entries, corpus.Entry{Term: t, Weight: s})
	}
	corpus.SortVector(entries)
	if len(entries) > PrismaFeedbackLimit {
		entries = entries[:PrismaFeedbackLimit]
	}
	return entries
}

// TestVisitSnippetTokensMatchesSnippets: the token windows streamed by
// VisitSnippetTokens, rendered through the vocabulary, must equal the
// Snippets strings exactly — same docs, same order, same window bounds.
func TestVisitSnippetTokensMatchesSnippets(t *testing.T) {
	w, e := testWorldCorpus(t)
	for i := 0; i < len(w.Concepts); i += 9 {
		phrase := w.Concepts[i].Name
		want := e.Snippets(phrase, 100)
		got := make([]string, 0, len(want))
		e.VisitSnippetTokens(phrase, 100, func(tokens []uint32, lo, hi int) {
			var b strings.Builder
			for j := lo; j < hi; j++ {
				if j > lo {
					b.WriteByte(' ')
				}
				b.WriteString(e.vocab.Token(tokens[j]))
			}
			got = append(got, b.String())
		})
		if len(got) != len(want) {
			t.Fatalf("VisitSnippetTokens(%q): %d windows, Snippets returned %d", phrase, len(got), len(want))
		}
		for j := range got {
			if got[j] != want[j] {
				t.Fatalf("VisitSnippetTokens(%q)[%d] = %q, want %q", phrase, j, got[j], want[j])
			}
		}
	}
}

// TestVisitFeedbackMatchesFeedback: streamed (id, weight) pairs must equal
// the Feedback entries bit for bit, in the same order.
func TestVisitFeedbackMatchesFeedback(t *testing.T) {
	w, e := testWorldCorpus(t)
	p := NewPrisma(e)
	for i := 0; i < len(w.Concepts); i += 9 {
		query := w.Concepts[i].Name
		want := p.Feedback(query)
		j := 0
		p.VisitFeedback(query, func(term uint32, weight float64) {
			if j >= len(want) {
				t.Fatalf("VisitFeedback(%q): more entries than Feedback's %d", query, len(want))
			}
			if tok := e.vocab.Token(term); tok != want[j].Term || weight != want[j].Weight {
				t.Fatalf("VisitFeedback(%q)[%d] = (%s, %v), want (%s, %v)",
					query, j, tok, weight, want[j].Term, want[j].Weight)
			}
			j++
		})
		if j != len(want) {
			t.Fatalf("VisitFeedback(%q): %d entries, Feedback returned %d", query, j, len(want))
		}
	}
}

// TestVisitSuggestionsMatchesSuggest: streamed query indexes must render to
// exactly the Suggest list, and the scratch-free term ids of each suggested
// query must round-trip to its text.
func TestVisitSuggestionsMatchesSuggest(t *testing.T) {
	w, e := testWorldCorpus(t)
	log := querylog.Generate(w, querylog.Config{Seed: 33})
	s := NewSuggestor(log)
	_ = e
	for i := 0; i < len(w.Concepts); i += 9 {
		query := w.Concepts[i].Name
		want := s.Suggest(query, SuggestionLimit)
		got := make([]Suggestion, 0, len(want))
		s.VisitSuggestions(query, SuggestionLimit, func(qi int32, freq int) {
			q := log.Query(int(qi))
			got = append(got, Suggestion{Text: q.Text, Freq: freq})
			ids := log.TermIDs(int(qi))
			terms := strings.Fields(q.Text)
			if len(ids) != len(terms) {
				t.Fatalf("TermIDs(%d): %d ids for %d terms", qi, len(ids), len(terms))
			}
			for k, id := range ids {
				if log.Vocab().Token(id) != terms[k] {
					t.Fatalf("TermIDs(%d)[%d] renders %q, want %q", qi, k, log.Vocab().Token(id), terms[k])
				}
			}
		})
		if len(want) == 0 {
			if len(got) != 0 {
				t.Fatalf("VisitSuggestions(%q): %d entries, Suggest returned none", query, len(got))
			}
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("VisitSuggestions(%q) diverged:\n got %v\nwant %v", query, got, want)
		}
	}
}
