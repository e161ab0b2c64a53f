// Package corpus provides the term-weight vectors and tf·idf weighting
// (Salton & Buckley, paper reference [6]) used by the concept-vector
// generator and the relevant-keyword miners. The term-document frequencies
// behind idf are the search index's (searchsim.Engine.IDF): the paper's
// "term dictionary" is the length of each posting list.
package corpus

import (
	"sort"

	"contextrank/internal/textproc"
)

// Entry is a term with a weight, the unit of all vectors in this package.
type Entry struct {
	Term   string
	Weight float64
}

// Vector is a sparse term-weight vector sorted by decreasing weight (ties
// broken lexicographically for determinism).
type Vector []Entry

// Map converts v to a map for random access.
func (v Vector) Map() map[string]float64 {
	m := make(map[string]float64, len(v))
	for _, e := range v {
		m[e.Term] = e.Weight
	}
	return m
}

// Sum returns the sum of weights in v. The paper uses this quantity (over a
// concept's top-100 relevant keywords) to separate specific from low-quality
// concepts (Table II).
func (v Vector) Sum() float64 {
	s := 0.0
	for _, e := range v {
		s += e.Weight
	}
	return s
}

// SortVector sorts entries by decreasing weight, breaking ties by term so
// results are deterministic.
func SortVector(v Vector) {
	sort.Slice(v, func(i, j int) bool {
		if v[i].Weight != v[j].Weight {
			return v[i].Weight > v[j].Weight
		}
		return v[i].Term < v[j].Term
	})
}

// TFIDF computes the tf·idf vector of the given terms: tf(t) * idf(t), where
// tf is the raw count in terms. Stop-words are removed. The result is sorted
// by decreasing weight.
func TFIDF(idf func(string) float64, terms []string) Vector {
	counts := make(map[string]int)
	for _, t := range terms {
		if t == "" || textproc.IsStopword(t) {
			continue
		}
		counts[t]++
	}
	v := make(Vector, 0, len(counts))
	for t, c := range counts {
		v = append(v, Entry{Term: t, Weight: float64(c) * idf(t)})
	}
	SortVector(v)
	return v
}

// NormalizeMax scales v so the maximum weight is 1 (weights end up in
// [0,1]), matching the paper's "the remaining terms' weights are normalized
// so that they are between 0 and 1". A nil or empty vector is returned
// unchanged.
func NormalizeMax(v Vector) Vector {
	if len(v) == 0 {
		return v
	}
	max := v[0].Weight
	for _, e := range v {
		if e.Weight > max {
			max = e.Weight
		}
	}
	if max <= 0 {
		return v
	}
	out := make(Vector, len(v))
	for i, e := range v {
		out[i] = Entry{Term: e.Term, Weight: e.Weight / max}
	}
	return out
}

// PunishBelow multiplies by factor the weight of every entry whose weight is
// below threshold, then drops entries whose resulting weight falls below
// removeBelow. This mirrors the paper's two-threshold scheme: "The weights
// of terms that fall under a certain threshold are punished ... and the
// resulting tf*idf scores below another threshold are removed".
func PunishBelow(v Vector, threshold, factor, removeBelow float64) Vector {
	out := make(Vector, 0, len(v))
	for _, e := range v {
		w := e.Weight
		if w < threshold {
			w *= factor
		}
		if w >= removeBelow {
			out = append(out, Entry{Term: e.Term, Weight: w})
		}
	}
	SortVector(out)
	return out
}
