package features

import (
	"math"
	"strings"

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
	terms := textproc.Words(concept)
	if len(terms) == 0 {
		return x
	}
	termSet := make(map[string]bool, len(terms))
	for _, t := range terms {
		termSet[t] = true
	}

	if e.log != nil {
		total := 0
		seen := make(map[int32]bool)
		for t := range termSet {
			for _, qi := range e.log.QueriesContaining(t) {
				if seen[qi] {
					continue
				}
				seen[qi] = true
				q := e.log.Query(int(qi))
				if q.Text == concept {
					continue
				}
				if bagCosine(termSet, strings.Fields(q.Text)) >= CosineThreshold {
					total += q.Freq
				}
			}
		}
		x.FreqCosineSimilar = math.Log1p(float64(total))
	}
	if e.engine != nil {
		x.SearchEngineAnyOrder = math.Log1p(float64(e.engine.ResultCountAnyOrder(concept)))
		sum := 0.0
		for t := range termSet {
			sum += e.engine.IDF(t)
		}
		x.MeanTermIDF = sum / float64(len(termSet))
	}
	return x
}

// bagCosine computes the binary bag-of-words cosine between a term set and
// a query's terms.
func bagCosine(concept map[string]bool, query []string) float64 {
	if len(concept) == 0 || len(query) == 0 {
		return 0
	}
	qset := make(map[string]bool, len(query))
	for _, t := range query {
		qset[t] = true
	}
	inter := 0
	for t := range qset {
		if concept[t] {
			inter++
		}
	}
	if inter == 0 {
		return 0
	}
	return float64(inter) / math.Sqrt(float64(len(concept))*float64(len(qset)))
}
