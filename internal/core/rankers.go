package core

import (
	"fmt"
	"math"

	"contextrank/internal/features"
	"contextrank/internal/ranksvm"
	"contextrank/internal/relevance"
)

// Method is one ranking approach under evaluation. Fit is called with the
// training fold (static baselines ignore it); Score returns one predicted
// score per example in the group, higher = ranked earlier. CloneMethod
// hands out an independent copy for a concurrent cross-validation fold: a
// fresh, unfitted method sharing the receiver's read-only configuration and
// resources but none of its fitted or stream state, whose Fit/Score
// sequence produces exactly what the receiver's would.
type Method interface {
	Name() string
	Fit(train []Group) error
	Score(g *Group) []float64
	CloneMethod() Method
}

// LearnedMethod is the paper's contribution: a ranking SVM over the
// interestingness features, optionally joined with the context relevance
// score (§V-A.6). With UseRelevance, relevance also breaks near-ties the
// way the paper does ("in case of ties, we decided to favor concepts that
// have higher relevance scores").
type LearnedMethod struct {
	// Label overrides the display name.
	Label string
	// FeatureGroups masks the interestingness groups (Table III ablation).
	// Nil means all groups.
	FeatureGroups map[features.Group]bool
	// UseRelevance appends the relevance score (log-scaled) as a feature.
	UseRelevance bool
	// UseEliminated appends the paper's eliminated candidate features
	// (cosine-similar queries, any-order result count, mean term idf) for
	// the feature-selection experiment.
	UseEliminated bool
	// Resource selects which mined store feeds the relevance feature.
	Resource relevance.Resource
	// Options configures the underlying ranking SVM.
	Options ranksvm.Options

	model *ranksvm.Model
}

// Name implements Method.
func (m *LearnedMethod) Name() string {
	if m.Label != "" {
		return m.Label
	}
	if m.UseRelevance {
		return "Interestingness + Relevance"
	}
	return "Interestingness Model"
}

// CloneMethod implements Method: the clone shares the read-only
// configuration (the FeatureGroups mask is never mutated) but not the
// fitted model.
func (m *LearnedMethod) CloneMethod() Method {
	c := *m
	c.model = nil
	return &c
}

func (m *LearnedMethod) groups() map[features.Group]bool {
	if m.FeatureGroups == nil {
		return features.AllGroups()
	}
	return m.FeatureGroups
}

func (m *LearnedMethod) featuresOf(ex *Example) []float64 {
	v := ex.Fields.Expand(m.groups())
	if m.UseEliminated {
		v = append(v, ex.Extended.Expand()...)
	}
	if m.UseRelevance {
		v = features.AppendRelevance(v, ex.RelScore[m.Resource], ex.RelNorm[m.Resource])
	}
	return v
}

// Fit implements Method: builds pairwise instances from the training groups
// and trains the ranking SVM.
func (m *LearnedMethod) Fit(train []Group) error {
	var instances []ranksvm.Instance
	for gi := range train {
		g := &train[gi]
		for ei := range g.Examples {
			instances = append(instances, ranksvm.Instance{
				Features: m.featuresOf(&g.Examples[ei]),
				Label:    g.Examples[ei].CTR,
				Group:    g.ID,
			})
		}
	}
	model, err := ranksvm.Train(instances, m.Options)
	if err != nil {
		return fmt.Errorf("core: train %s: %w", m.Name(), err)
	}
	m.model = model
	return nil
}

// Model returns the trained ranking SVM (nil before Fit). The production
// framework loads this model into its runtime.
func (m *LearnedMethod) Model() *ranksvm.Model { return m.model }

// Score implements Method.
func (m *LearnedMethod) Score(g *Group) []float64 {
	out := make([]float64, len(g.Examples))
	for i := range g.Examples {
		out[i] = m.model.Score(m.featuresOf(&g.Examples[i]))
		if m.UseRelevance {
			// Deterministic micro tie-break by relevance: scaled far below
			// the score resolution that matters.
			out[i] += float64(1e-9 * math.Log1p(g.Examples[i].RelScore[m.Resource]))
		}
	}
	return out
}
