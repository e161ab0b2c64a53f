package features

import (
	"math"
	"slices"

	"contextrank/internal/textproc"
)

// ExtendedFields are the candidate features the paper *tried and
// eliminated* during feature selection (§IV-A):
//
//   - "considering queries and concepts as bags of words ... and define a
//     cosine similarity threshold to identify similar queries to the
//     concept" — FreqCosineSimilar;
//   - "a variation which submits the concept as a regular query is
//     eliminated" — SearchEngineAnyOrder;
//   - "features that utilize idf (inverse document frequency) value of the
//     individual terms that appear in the concept, however, these features
//     were not useful" — MeanTermIDF.
//
// They are kept in the library so the feature-selection experiment can
// reproduce the paper's negative result: adding them does not reduce the
// error (see experiments.FeatureSelection).
type ExtendedFields struct {
	// FreqCosineSimilar is log1p of the summed frequency of queries whose
	// bag-of-words cosine similarity with the concept is ≥ CosineThreshold
	// (excluding the exact query).
	FreqCosineSimilar float64
	// SearchEngineAnyOrder is log1p of the result count of the concept as
	// a regular (any-order) query.
	SearchEngineAnyOrder float64
	// MeanTermIDF is the mean idf of the concept's terms against the web
	// corpus.
	MeanTermIDF float64
}

// CosineThreshold is the similarity cutoff for FreqCosineSimilar.
const CosineThreshold = 0.5

// Expand appends the extended fields as a numeric vector.
func (x ExtendedFields) Expand() []float64 {
	return []float64{x.FreqCosineSimilar, x.SearchEngineAnyOrder, x.MeanTermIDF}
}

// NumExtended is the expanded width of ExtendedFields.
const NumExtended = 3

// Extended computes the eliminated candidate features for a concept.
func (e *Extractor) Extended(concept string) ExtendedFields {
	var x ExtendedFields
	var terms []string // distinct, in first-appearance order: sums add in one order
	for _, t := range textproc.Words(concept) {
		if !slices.Contains(terms, t) {
			terms = append(terms, t)
		}
	}
	if len(terms) == 0 {
		return x
	}

	if e.log != nil {
		ids := e.log.Vocab().AppendIDs(nil, terms)
		total := 0
		seen := make(map[int32]bool)
		for _, t := range terms {
			for _, qi := range e.log.QueriesContaining(t) {
				if seen[qi] {
					continue
				}
				seen[qi] = true
				q := e.log.Query(int(qi))
				if q.Text == concept {
					continue
				}
				if bagCosine(ids, e.log.TermIDs(int(qi))) >= CosineThreshold {
					total += q.Freq
				}
			}
		}
		x.FreqCosineSimilar = math.Log1p(float64(total))
	}
	if e.engine != nil {
		x.SearchEngineAnyOrder = math.Log1p(float64(e.engine.ResultCountAnyOrder(concept)))
		sum := 0.0
		for _, t := range terms {
			sum += e.engine.IDF(t)
		}
		x.MeanTermIDF = sum / float64(len(terms))
	}
	return x
}

// bagCosine computes the binary bag-of-words cosine between a concept's
// distinct term ids and a query's term ids, repeats allowed.
func bagCosine(concept, query []uint32) float64 {
	if len(concept) == 0 || len(query) == 0 {
		return 0
	}
	inter, distinct := 0, 0
	for j, id := range query {
		if !slices.Contains(query[:j], id) {
			distinct++
			if slices.Contains(concept, id) {
				inter++
			}
		}
	}
	if inter == 0 {
		return 0
	}
	return float64(inter) / math.Sqrt(float64(len(concept))*float64(distinct))
}
