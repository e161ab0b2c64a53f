package experiments

import (
	"math"
	"math/rand"

	"contextrank/internal/conceptvec"
	"contextrank/internal/core"
	"contextrank/internal/relevance"
)

// RandomMethod is the random-ordering baseline (paper: 50.01% weighted
// error). Scores are drawn fresh per group from a deterministic stream.
type RandomMethod struct {
	Seed int64
	rng  *rand.Rand
}

// Name implements Method.
func (m *RandomMethod) Name() string { return "Random" }

// CloneMethod implements Method: the clone re-derives its stream from
// the seed, exactly as Fit resets the receiver's.
func (m *RandomMethod) CloneMethod() core.Method { return &RandomMethod{Seed: m.Seed} }

// Fit implements Method (resets the stream so evaluation is reproducible).
func (m *RandomMethod) Fit([]core.Group) error {
	m.rng = rand.New(rand.NewSource(m.Seed))
	return nil
}

// Score implements Method.
func (m *RandomMethod) Score(g *core.Group) []float64 {
	if m.rng == nil {
		m.rng = rand.New(rand.NewSource(m.Seed))
	}
	out := make([]float64, len(g.Examples))
	for i := range out {
		out[i] = m.rng.Float64()
	}
	return out
}

// ConceptVectorMethod is the production baseline: entities ranked by their
// concept-vector score in the window (paper §II-B, 30.22% weighted error).
type ConceptVectorMethod struct {
	Scorer *conceptvec.Scorer
}

// Name implements Method.
func (m *ConceptVectorMethod) Name() string { return "Concept Vector Score" }

// CloneMethod implements Method (the scorer is stateless and shared).
func (m *ConceptVectorMethod) CloneMethod() core.Method {
	return &ConceptVectorMethod{Scorer: m.Scorer}
}

// Fit implements Method (the baseline is static).
func (m *ConceptVectorMethod) Fit([]core.Group) error { return nil }

// Score implements Method.
func (m *ConceptVectorMethod) Score(g *core.Group) []float64 {
	vec := m.Scorer.ConceptVector(g.Text).Map()
	out := make([]float64, len(g.Examples))
	for i := range g.Examples {
		out[i] = vec[g.Examples[i].Concept.Name]
	}
	return out
}

// RelevanceMethod ranks purely by the pre-mined relevance score (paper
// §V-A.5, Table IV: no model is trained). The rank key blends the raw
// matched-confidence score with its coverage-normalized form, so both the
// pack-scale (quality) signal and the contextual-coverage signal
// contribute.
type RelevanceMethod struct {
	Resource relevance.Resource
}

// Name implements Method.
func (m *RelevanceMethod) Name() string { return "Relevance (" + m.Resource.String() + ")" }

// CloneMethod implements Method (the method is static configuration).
func (m *RelevanceMethod) CloneMethod() core.Method { c := *m; return &c }

// Fit implements Method (static).
func (m *RelevanceMethod) Fit([]core.Group) error { return nil }

// Score implements Method.
func (m *RelevanceMethod) Score(g *core.Group) []float64 {
	out := make([]float64, len(g.Examples))
	for i := range g.Examples {
		out[i] = math.Log1p(g.Examples[i].RelScore[m.Resource]) * (0.2 + g.Examples[i].RelNorm[m.Resource])
	}
	return out
}

// Baseline builds the concept-vector scorer over the system's corpus idf
// and unit set: the production ranking the paper measures
// against (§II-B). It is stateless, so every table builds its own.
func Baseline(s *core.System) *conceptvec.Scorer {
	return conceptvec.New(s.Engine.IDF, s.Units, conceptvec.Options{})
}
