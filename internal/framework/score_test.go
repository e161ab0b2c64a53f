package framework_test

import (
	"testing"

	"contextrank/internal/core"
	"contextrank/internal/features"
	"contextrank/internal/newsgen"
	"contextrank/internal/ranksvm"
	"contextrank/internal/relevance"
	"contextrank/internal/searchsim"
	"contextrank/internal/world"
)

// TestServedScoreIsModelScore: the runtime scores a detection as its row's
// interestingness sum, which Tables.Runtime takes once, plus the two
// relevance terms. For every row of a built runtime serving a fitted model,
// and a grid of relevance values from 0, that is Model.Score of the full
// vector bit for bit.
func TestServedScoreIsModelScore(t *testing.T) {
	s := core.Build(core.Config{
		Seed:   42,
		World:  world.Config{VocabSize: 2000, NumTopics: 10, NumConcepts: 300},
		Corpus: searchsim.CorpusConfig{MaxDocsPerConcept: 18},
		News:   newsgen.Config{NumStories: 250},
	})
	learned := &core.LearnedMethod{UseRelevance: true, Resource: relevance.Snippets, Options: ranksvm.Options{Seed: 42}}
	if err := learned.Fit(s.Dataset([]relevance.Resource{relevance.Snippets})); err != nil {
		t.Fatal(err)
	}
	rt := s.RuntimeTables().Runtime(learned.Model())
	if rt.Interest.Len() == 0 {
		t.Fatal("the runtime has no interest rows")
	}
	all := features.AllGroups()
	for r := range rt.Interest.Len() {
		for _, rel := range []float64{0, 1e-9, 0.3, 1, 7.25, 1e4} {
			for _, relNorm := range []float64{0, 0.125, 0.5, 1} {
				served, fields := rt.ServedScore(r, rel, relNorm)
				if want := rt.Model.Score(features.AppendRelevance(fields.Expand(all), rel, relNorm)); served != want {
					t.Fatalf("row %d, relevance (%v, %v): served %v, Model.Score %v", r, rel, relNorm, served, want)
				}
			}
		}
	}
}
