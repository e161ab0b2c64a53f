// Package querylog models the search-engine query log the paper mines for
// interestingness features and concept (unit) extraction. The paper used
// "the most popular 20 million queries submitted to the engine in the week
// of November 17th–23rd, 2007"; we generate a log of the same statistical
// shape from the synthetic world: per-concept exact and phrase-containing
// queries whose frequencies follow the concept's latent interestingness,
// plus a Zipfian long tail of random queries.
//
// The log is the one store of query terms: FromCounts interns them once,
// and the unit extractor, the unit matcher and the suggestion service read
// its ids (TermIDs, Vocab, ContainsPhrase) rather than keeping copies.
package querylog

import (
	"math"
	"math/rand"
	"sort"
	"strings"

	"contextrank/internal/match"
	"contextrank/internal/world"
)

// Query is one distinct query string with its weekly frequency.
type Query struct {
	// Text is the raw query (lower-case, space-separated terms); its
	// interned terms are Log.TermIDs.
	Text string
	// Freq is the number of times the query was submitted.
	Freq int
}

// Log is a weekly query log with frequency-weighted lookups. Terms are
// interned to dense uint32 ids at construction (the same idiom as the
// searchsim index): per-term postings and frequency tables are flat slices
// indexed by term id, and phrase containment compares ids, not strings. A
// Log is immutable after FromCounts.
type Log struct {
	Queries []Query

	totalFreq int64
	byText    map[string]int // query text -> index
	vocab     *match.Vocab   // term string <-> dense id
	termIDs   [][]uint32     // query index -> interned terms of Text
	byTerm    [][]int32      // term id -> indexes of queries containing it
}

// Config parameterizes log generation.
type Config struct {
	Seed int64
}

// The log's fixed shape.
const (
	// maxExactFreq is the frequency of the hottest concept's exact query.
	maxExactFreq = 20000
	// phraseVariants is how many distinct phrase-containing query variants
	// are generated per concept.
	phraseVariants = 12
)

// Generate builds a query log from the world. Frequencies are driven by
// concept interestingness: freq_exact ≈ maxExactFreq · Interest² with
// log-normal noise, so the feature the ranker mines is a noisy monotone
// observation of the latent variable.
func Generate(w *world.World, cfg Config) *Log {
	rng := rand.New(rand.NewSource(cfg.Seed))
	agg := make(map[string]int)

	for i := range w.Concepts {
		c := &w.Concepts[i]
		noise := math.Exp(0.5 * rng.NormFloat64())
		exact := int(float64(maxExactFreq) * math.Pow(c.Interest, 2) * noise)
		// Low-quality phrases still get queried a lot (that is exactly why
		// they sneak into the candidate set via unit scores): give them a
		// floor driven by generality rather than interest.
		if c.LowQuality() {
			// rng.Float64 inlines a scaling product the add would fuse.
			exact += int(float64(1500*(1-c.Specificity)) * (0.5 + float64(rng.Float64())))
		}
		if exact > 0 {
			agg[c.Name] += exact
		}
		// Phrase-containing variants: concept plus one or two of its
		// context terms (or generic refiners for topicless phrases).
		for v := 0; v < phraseVariants; v++ {
			extra := pickRefiner(w, c, rng)
			if extra == "" {
				continue
			}
			var text string
			if rng.Intn(2) == 0 {
				text = c.Name + " " + extra
			} else {
				text = extra + " " + c.Name
			}
			// Even tail concepts receive some refinement traffic: the
			// suggestion service has coverage for almost everything, just
			// at low frequency.
			f := 2 + rng.Intn(4) + int(float64(exact)*(0.05+float64(0.2*rng.Float64())))
			agg[text] += f
		}
	}

	// Long tail, 4 queries per concept: 1-3 distinct random topical terms.
	for i := 0; i < 4*len(w.Concepts); i++ {
		topic := &w.Topics[rng.Intn(len(w.Topics))]
		n := 1 + rng.Intn(3)
		terms := make([]string, 0, n)
		for len(terms) < n {
			term := w.SampleTerm(topic, rng)
			dup := false
			for _, prev := range terms {
				if prev == term {
					dup = true
					break
				}
			}
			if !dup {
				terms = append(terms, term)
			}
		}
		text := strings.Join(terms, " ")
		agg[text] += 1 + rng.Intn(40)
	}

	return FromCounts(agg)
}

// pickRefiner selects an extra query term for a phrase-containing variant.
// Refiners come from the concept's query vocabulary, which overlaps its
// document context only partially (the world's refiner overlap).
func pickRefiner(w *world.World, c *world.Concept, rng *rand.Rand) string {
	if c.Topic >= 0 && len(c.QueryRefiners) > 0 {
		return c.QueryRefiners[rng.Intn(len(c.QueryRefiners))]
	}
	// Topicless (low-quality) concepts are refined with random vocabulary.
	return w.Vocab[rng.Intn(len(w.Vocab))]
}

// FromCounts builds a Log from a query→frequency map (exported so tests and
// the units extractor can build small hand-crafted logs).
func FromCounts(counts map[string]int) *Log {
	l := &Log{
		byText: make(map[string]int, len(counts)),
		vocab:  match.NewVocab(),
	}
	texts := make([]string, 0, len(counts))
	for t := range counts {
		texts = append(texts, t)
	}
	sort.Strings(texts) // determinism: ids and postings follow text order
	for _, text := range texts {
		f := counts[text]
		if f <= 0 {
			continue
		}
		idx := len(l.Queries)
		l.Queries = append(l.Queries, Query{Text: text, Freq: f})
		l.byText[text] = idx
		l.totalFreq += int64(f)
		terms := strings.Fields(text)
		ids := make([]uint32, len(terms))
		for i, term := range terms {
			id := l.vocab.Intern(term)
			ids[i] = id
			if int(id) >= len(l.byTerm) {
				l.byTerm = append(l.byTerm, nil)
			}
			// Dedup within the query: a term contributes one posting no
			// matter how often it repeats.
			if n := len(l.byTerm[id]); n > 0 && l.byTerm[id][n-1] == int32(idx) {
				continue
			}
			l.byTerm[id] = append(l.byTerm[id], int32(idx))
		}
		l.termIDs = append(l.termIDs, ids)
	}
	return l
}

// NumDistinct returns the number of distinct queries.
func (l *Log) NumDistinct() int { return len(l.Queries) }

// TotalFreq returns the total number of query submissions (sum of
// frequencies).
func (l *Log) TotalFreq() int64 { return l.totalFreq }

// FreqExact returns the frequency of queries exactly equal to phrase — the
// paper's feature (1) freq_exact.
func (l *Log) FreqExact(phrase string) int {
	if i, ok := l.byText[phrase]; ok {
		return l.Queries[i].Freq
	}
	return 0
}

// FreqPhraseContainedTerms returns the summed frequency of queries that
// contain the phrase of terms as a contiguous sub-phrase (including exact
// matches) — the paper's feature (2) freq_phrase_contained. The batch
// feature extractor splits each concept once and reuses the terms across
// every per-term feature.
func (l *Log) FreqPhraseContainedTerms(terms []string) int {
	if len(terms) == 0 {
		return 0
	}
	// Intern the phrase; a term outside the log vocabulary cannot occur in
	// any query, so the containment sum is zero. Stack buffer keeps the
	// common short phrase allocation-free.
	var buf [8]uint32
	ids := buf[:0]
	for _, t := range terms {
		id := l.vocab.ID(t)
		if id == match.NoID {
			return 0
		}
		ids = append(ids, id)
	}
	total := 0
	for _, idx := range l.byTerm[ids[0]] {
		if containsPhraseIDs(l.termIDs[idx], ids) {
			total += l.Queries[idx].Freq
		}
	}
	return total
}

// ContainsPhrase reports whether the i'th query contains the interned
// phrase ids (from Vocab) as a contiguous run of terms.
func (l *Log) ContainsPhrase(i int, ids []uint32) bool {
	return containsPhraseIDs(l.termIDs[i], ids)
}

// containsPhraseIDs reports whether hay contains needle as a contiguous
// subsequence of term ids.
func containsPhraseIDs(hay, needle []uint32) bool {
	if len(needle) > len(hay) {
		return false
	}
	for i := 0; i+len(needle) <= len(hay); i++ {
		match := true
		for j := range needle {
			if hay[i+j] != needle[j] {
				match = false
				break
			}
		}
		if match {
			return true
		}
	}
	return false
}

// QueriesContaining returns the indexes of queries whose term set includes
// term, in deterministic (query-index) order. The returned slice aliases
// internal storage and must not be modified.
func (l *Log) QueriesContaining(term string) []int32 {
	id := l.vocab.ID(term)
	if id == match.NoID {
		return nil
	}
	return l.byTerm[id]
}

// Query returns the i'th query.
func (l *Log) Query(i int) Query { return l.Queries[i] }

// Vocab returns the log's term vocabulary (term string ↔ dense id). The log
// is immutable after FromCounts, so the vocabulary is safe for concurrent
// reads; the interned relevance miner keys its scratch by these ids.
func (l *Log) Vocab() *match.Vocab { return l.vocab }

// TermIDs returns the interned terms of the i'th query, in query order
// (repeats preserved). The slice aliases internal storage and must not be
// modified.
func (l *Log) TermIDs(i int) []uint32 { return l.termIDs[i] }
