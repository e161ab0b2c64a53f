package searchsim

import (
	"sort"
	"strings"

	"contextrank/internal/querylog"
	"contextrank/internal/textproc"
)

// Suggestion is one related-query suggestion with its weekly query
// frequency ("We also obtain the query frequencies of the suggestions").
type Suggestion struct {
	Text string
	Freq int
}

// SuggestionLimit is the maximum number of suggestions returned per query
// ("we submit the concept ci to this service and obtain up to 300
// suggestions").
const SuggestionLimit = 300

// Suggestor is the related-query-suggestion service, the paper's third
// relevance-mining resource (obtained in production from the Yahoo!
// Developer Network). Suggestions are log queries that contain the submitted
// concept as a phrase, or failing enough of those, queries sharing a
// non-stop term with it, ranked by frequency.
type Suggestor struct {
	log *querylog.Log
}

// NewSuggestor builds a suggestion service over the query log.
func NewSuggestor(l *querylog.Log) *Suggestor { return &Suggestor{log: l} }

// Log returns the query log backing the suggestion service (the interned
// relevance miner keys its scratch by the log's term ids).
func (s *Suggestor) Log() *querylog.Log { return s.log }

// suggestIndexes is the Suggest kernel: the ranked suggestion list as
// query-log indexes. Phrase-containing queries come first, then shared-term
// matches fill the budget, each group sorted by (frequency desc, text asc).
// The query's terms are interned into the log's vocabulary once, and the
// phrase filter compares ids (Log.ContainsPhrase); a term outside the log
// becomes match.NoID, which no query contains. Returns nil only for an
// empty query.
func (s *Suggestor) suggestIndexes(query string, max int) []int32 {
	if max <= 0 || max > SuggestionLimit {
		max = SuggestionLimit
	}
	qTerms := textproc.Words(query)
	if len(qTerms) == 0 {
		return nil
	}
	qText := strings.Join(qTerms, " ")
	var buf [8]uint32
	qIDs := s.log.Vocab().AppendIDs(buf[:0], qTerms)

	seen := make(map[int32]bool)
	var phraseMatches, termMatches []int32
	for _, idx := range s.log.QueriesContaining(qTerms[0]) {
		if s.log.Query(int(idx)).Text == qText {
			continue
		}
		if s.log.ContainsPhrase(int(idx), qIDs) {
			phraseMatches = append(phraseMatches, idx)
			seen[idx] = true
		}
	}
	// Fall back to shared-term matches to fill the budget.
	for _, t := range qTerms {
		if textproc.IsStopword(t) {
			continue
		}
		for _, idx := range s.log.QueriesContaining(t) {
			if seen[idx] {
				continue
			}
			q := s.log.Query(int(idx))
			if q.Text == qText {
				continue
			}
			seen[idx] = true
			termMatches = append(termMatches, idx)
		}
	}

	rank := func(idxs []int32) {
		sort.Slice(idxs, func(i, j int) bool {
			qi, qj := s.log.Query(int(idxs[i])), s.log.Query(int(idxs[j]))
			if qi.Freq != qj.Freq {
				return qi.Freq > qj.Freq
			}
			return qi.Text < qj.Text
		})
	}
	rank(phraseMatches)
	out := phraseMatches
	if len(out) < max {
		rank(termMatches)
		need := max - len(out)
		if len(termMatches) > need {
			termMatches = termMatches[:need]
		}
		out = append(out, termMatches...)
	}
	if len(out) > max {
		out = out[:max]
	}
	if out == nil {
		out = []int32{} // valid query, no matches: non-nil like the pre-kernel API
	}
	return out
}

// Suggest returns up to max (or SuggestionLimit if max <= 0) suggestions for
// query, most frequent first, ties broken by text. The query itself is not
// included.
func (s *Suggestor) Suggest(query string, max int) []Suggestion {
	idxs := s.suggestIndexes(query, max)
	if idxs == nil {
		return nil
	}
	out := make([]Suggestion, len(idxs))
	for i, idx := range idxs {
		q := s.log.Query(int(idx))
		out[i] = Suggestion{Text: q.Text, Freq: q.Freq}
	}
	return out
}

// VisitSuggestions streams the Suggest results as query-log indexes with
// their frequencies, in Suggest order — the string-free path the interned
// relevance miner consumes (suggestion terms arrive as Log.TermIDs ids, so
// no suggestion text is materialized or re-tokenized).
func (s *Suggestor) VisitSuggestions(query string, max int, visit func(queryIndex int32, freq int)) {
	for _, idx := range s.suggestIndexes(query, max) {
		visit(idx, s.log.Query(int(idx)).Freq)
	}
}
