// Package conceptvec implements concept-vector generation (paper §II-B),
// the production baseline that the learned ranker is evaluated against:
//
//  1. a term vector with tf·idf scores against the web corpus's idf,
//     stop-words removed, weights normalized to [0,1], sub-threshold weights
//     punished and low scores removed;
//  2. a unit vector of all query-log units found in the document, scores
//     normalized to [0,1], punished and pruned the same way;
//  3. a merge of the two: term-only entries are added with punished term
//     weight, unit-only entries with their unit weight, and entries in both
//     with the sum;
//  4. the multi-term bubble-up step: to each multi-term concept's weight is
//     added the unit- and term-vector scores of every individual term it
//     contains, "so more specific concepts eventually bubble up".
package conceptvec

import (
	"strings"

	"contextrank/internal/corpus"
	"contextrank/internal/textproc"
	"contextrank/internal/units"
)

// The fixed thresholds of §II-B: vector weights below punishThreshold are
// multiplied by punishFactor.
const (
	punishThreshold = 0.2
	punishFactor    = 0.5
)

// Options are the tunable threshold knobs of §II-B. Zero values select
// defaults.
type Options struct {
	// RemoveThreshold: weights below this after punishment are dropped.
	RemoveThreshold float64 // default 0.05
	// TermOnlyPunish multiplies the weight of terms that appear in the term
	// vector but not the unit vector ("we add it to the concept vector, but
	// punish its term vector weight").
	TermOnlyPunish float64 // default 0.6
	// DisableBubbleUp turns off merge step 4 (for the ablation bench).
	DisableBubbleUp bool
}

func (o Options) withDefaults() Options {
	if o.RemoveThreshold == 0 {
		o.RemoveThreshold = 0.05
	}
	if o.TermOnlyPunish == 0 {
		o.TermOnlyPunish = 0.6
	}
	return o
}

// Scorer computes concept vectors for documents.
type Scorer struct {
	idf   func(string) float64
	units *units.Set
	opts  Options
}

// New builds a scorer over the web corpus's idf (searchsim.Engine.IDF) and
// the unit set.
func New(idf func(string) float64, unitSet *units.Set, opts Options) *Scorer {
	return &Scorer{idf: idf, units: unitSet, opts: opts.withDefaults()}
}

// ConceptVector computes the merged concept vector of a document. Entries
// are single terms and multi-term unit phrases, sorted by decreasing weight.
func (s *Scorer) ConceptVector(text string) corpus.Vector {
	words := textproc.Words(text)
	content := make([]string, 0, len(words))
	for _, w := range words {
		if !textproc.IsStopword(w) {
			content = append(content, w)
		}
	}

	// Step 1: term vector.
	termVec := corpus.NormalizeMax(corpus.TFIDF(s.idf, content))
	termVec = corpus.PunishBelow(termVec, punishThreshold, punishFactor, s.opts.RemoveThreshold)
	termW := termVec.Map()

	// Step 2: unit vector over all units found in the document (counting a
	// phrase once).
	unitW := make(map[string]float64)
	if s.units != nil {
		ids := s.units.Vocab().AppendIDs(make([]uint32, 0, len(words)), words)
		for _, m := range s.units.FindInIDs(ids, nil) {
			if _, ok := unitW[m.Unit.Text]; !ok {
				unitW[m.Unit.Text] = m.Unit.Score
			}
		}
		uv := make(corpus.Vector, 0, len(unitW))
		for t, w := range unitW {
			uv = append(uv, corpus.Entry{Term: t, Weight: w})
		}
		uv = corpus.NormalizeMax(uv)
		uv = corpus.PunishBelow(uv, punishThreshold, punishFactor, s.opts.RemoveThreshold)
		unitW = uv.Map()
	}

	// Step 3: merge.
	merged := make(map[string]float64, len(termW)+len(unitW))
	for t, w := range termW {
		if uw, ok := unitW[t]; ok {
			merged[t] = w + uw // case 3: in both
		} else {
			merged[t] = w * s.opts.TermOnlyPunish // case 1: term only
		}
	}
	for u, w := range unitW {
		if _, ok := merged[u]; !ok {
			merged[u] = w // case 2: unit only
		}
	}

	// Step 4: multi-term bubble-up — add each contained term's unit-vector
	// and term-vector scores. Max possible weight = 2 × number of terms.
	if !s.opts.DisableBubbleUp {
		for phrase := range merged {
			if !strings.Contains(phrase, " ") {
				continue
			}
			for _, t := range strings.Fields(phrase) {
				merged[phrase] += termW[t] + unitW[t]
			}
		}
	}

	out := make(corpus.Vector, 0, len(merged))
	for t, w := range merged {
		out = append(out, corpus.Entry{Term: t, Weight: w})
	}
	corpus.SortVector(out)
	return out
}
