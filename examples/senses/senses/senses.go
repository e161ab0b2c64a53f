// Package senses implements the paper's §IV-C extension for ambiguous
// concepts ("such as Madonna or Jaguar"): "If a concept is ambiguous, then
// the relevant keywords mined might have low final scores, as they would not
// cluster well globally. However, there would be some good local clusters,
// depending on the number of senses, and if such clusters can be identified
// then the scores can be boosted."
//
// Senses are identified by clustering the concept's result snippets with
// deterministic spherical k-means over tf·idf snippet vectors; the relevant
// keywords are then mined per cluster (relevance.Miner.MineClusters), and a
// context is scored against the best-matching sense instead of the diluted
// global pack.
package senses

import (
	"math"
	"sort"

	"contextrank/internal/corpus"
	"contextrank/internal/relevance"
	"contextrank/internal/searchsim"
	"contextrank/internal/textproc"
)

// Sense is one sense of an ambiguous concept: its mined keywords plus the
// share of snippets that belong to it.
type Sense struct {
	// Keywords are the sense's relevant context keywords (stemmed, scored).
	Keywords corpus.Vector
	// Share is the fraction of the concept's snippets in this sense.
	Share float64
}

// Mine clusters the concept's snippets in eng into up to maxSenses senses
// and mines relevant keywords per sense with mn, a miner over eng. Clusters
// smaller than minShare of the snippets are merged into the largest cluster
// (they are retrieval noise, not senses). Returns at least one sense
// whenever any snippet exists, largest share first.
func Mine(eng *searchsim.Engine, mn *relevance.Miner, concept string, maxSenses int, minShare float64) []Sense {
	if maxSenses < 1 {
		maxSenses = 2
	}
	if minShare == 0 {
		minShare = 0.15
	}
	snippets := eng.Snippets(concept, relevance.SnippetDepth)
	if len(snippets) == 0 {
		return nil
	}
	assign, k := cluster(eng, snippets, maxSenses, minShare)
	sizes := make([]int, k)
	for _, c := range assign {
		sizes[c]++
	}
	var senses []Sense
	for c, keywords := range mn.MineClusters(concept, assign, k) {
		if keywords != nil {
			senses = append(senses, Sense{Keywords: keywords, Share: float64(sizes[c]) / float64(len(assign))})
		}
	}
	sort.Slice(senses, func(i, j int) bool { return senses[i].Share > senses[j].Share })
	return senses
}

// cluster assigns every snippet to one of k ≤ maxSenses clusters, some of
// them emptied by merging sub-threshold clusters into the largest.
func cluster(eng *searchsim.Engine, snippets []string, k int, minShare float64) ([]int, int) {
	// tf·idf unit vectors per snippet.
	vecs := make([]map[string]float64, len(snippets))
	for i, s := range snippets {
		counts := make(map[string]float64)
		for _, t := range textproc.Words(s) {
			if !textproc.IsStopword(t) {
				counts[t] += eng.IDF(t)
			}
		}
		normalize(counts)
		vecs[i] = counts
	}

	if k > len(snippets) {
		k = len(snippets)
	}
	assign := sphericalKMeans(vecs, k)

	// Merge sub-threshold clusters into the largest one.
	sizes := make([]int, k)
	for _, c := range assign {
		sizes[c]++
	}
	largest := 0
	for c := 1; c < k; c++ {
		if sizes[c] > sizes[largest] {
			largest = c
		}
	}
	min := int(minShare * float64(len(snippets)))
	for i, c := range assign {
		if sizes[c] < min || sizes[c] < 2 {
			assign[i] = largest
		}
	}
	return assign, k
}

// normalize scales a sparse vector to unit length. Its sums add in key
// order, as dot's do: float addition is not associative, and map order
// changes from run to run.
func normalize(v map[string]float64) {
	n := 0.0
	for _, t := range sortedKeys(v) {
		n += v[t] * v[t]
	}
	if n == 0 {
		return
	}
	n = math.Sqrt(n)
	for t := range v {
		v[t] /= n
	}
}

func dot(a, b map[string]float64) float64 {
	if len(b) < len(a) {
		a, b = b, a
	}
	s := 0.0
	for _, t := range sortedKeys(a) {
		s += a[t] * b[t]
	}
	return s
}

func sortedKeys(v map[string]float64) []string {
	keys := make([]string, 0, len(v))
	for t := range v {
		keys = append(keys, t)
	}
	sort.Strings(keys)
	return keys
}

// sphericalKMeans clusters unit vectors by cosine similarity with
// deterministic farthest-point initialization. Returns the assignment.
func sphericalKMeans(vecs []map[string]float64, k int) []int {
	n := len(vecs)
	assign := make([]int, n)
	if k <= 1 || n <= 1 {
		return assign
	}
	// Deterministic init: centroid 0 = vector 0; each next centroid is the
	// vector least similar to all chosen so far.
	centroidIdx := []int{0}
	for len(centroidIdx) < k {
		best, bestSim := -1, math.Inf(1)
		for i := 0; i < n; i++ {
			maxSim := math.Inf(-1)
			for _, c := range centroidIdx {
				if s := dot(vecs[i], vecs[c]); s > maxSim {
					maxSim = s
				}
			}
			if maxSim < bestSim {
				best, bestSim = i, maxSim
			}
		}
		centroidIdx = append(centroidIdx, best)
	}
	centroids := make([]map[string]float64, k)
	for c, idx := range centroidIdx {
		centroids[c] = copyVec(vecs[idx])
	}

	for iter := 0; iter < 20; iter++ {
		changed := false
		for i := 0; i < n; i++ {
			best, bestSim := 0, math.Inf(-1)
			for c := 0; c < k; c++ {
				if s := dot(vecs[i], centroids[c]); s > bestSim {
					best, bestSim = c, s
				}
			}
			if assign[i] != best {
				assign[i] = best
				changed = true
			}
		}
		if !changed && iter > 0 {
			break
		}
		// Recompute centroids as normalized means.
		for c := 0; c < k; c++ {
			sum := make(map[string]float64)
			for i := 0; i < n; i++ {
				if assign[i] != c {
					continue
				}
				for t, x := range vecs[i] {
					sum[t] += x
				}
			}
			if len(sum) > 0 {
				normalize(sum)
				centroids[c] = sum
			}
		}
	}
	return assign
}

func copyVec(v map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(v))
	for t, x := range v {
		out[t] = x
	}
	return out
}

// Store holds per-sense keyword packs for ambiguity-aware relevance
// scoring.
type Store struct {
	senses map[string][]Sense
}

// BuildStore mines senses for every concept.
func BuildStore(eng *searchsim.Engine, mn *relevance.Miner, concepts []string, maxSenses int) *Store {
	s := &Store{senses: make(map[string][]Sense, len(concepts))}
	for _, c := range concepts {
		s.senses[c] = Mine(eng, mn, c, maxSenses, 0)
	}
	return s
}

// Senses returns a concept's senses (nil if unknown).
func (s *Store) Senses(concept string) []Sense { return s.senses[concept] }

// Score returns the relevance of concept in the context as the *maximum*
// over its senses — the paper's suggested boost: a context matching any one
// sense strongly counts, instead of being diluted by the other senses'
// keywords.
func (s *Store) Score(concept string, contextStems map[string]bool) float64 {
	best := 0.0
	for _, sense := range s.senses[concept] {
		score := 0.0
		for _, e := range sense.Keywords {
			if contextStems[e.Term] {
				score += e.Weight
			}
		}
		if score > best {
			best = score
		}
	}
	return best
}
