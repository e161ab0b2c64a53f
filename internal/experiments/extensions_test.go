package experiments

import (
	"math"
	"math/rand"
	"testing"

	"contextrank/internal/core"
	"contextrank/internal/newsgen"
	"contextrank/internal/online"
	"contextrank/internal/ranksvm"
	"contextrank/internal/relevance"
	"contextrank/internal/world"
)

// The paper's feature-selection negative result: the eliminated candidates
// must not improve the model materially (we allow a small tolerance in
// either direction — the paper dropped them because they did not help).
func TestFeatureSelectionEliminatedCandidates(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	s := testSystem(t)
	selected, withEliminated, err := FeatureSelection(s, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("selected:        %v", selected)
	t.Logf("with eliminated: %v", withEliminated)
	improvement := selected.WeightedErrorRate - withEliminated.WeightedErrorRate
	if improvement > 0.03 {
		t.Errorf("eliminated features improved error by %.3f — the paper's selection would have kept them", improvement)
	}
}

func TestSenseExperimentRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	s := testSystem(t)
	global, sense, n := SenseExperiment(s, 2)
	if n == 0 {
		t.Skip("no ambiguous mentions in click corpus")
	}
	t.Logf("ambiguous mentions=%d global coverage=%.3f sense coverage=%.3f", n, global, sense)
	if sense <= 0 {
		t.Fatal("sense coverage must be positive when mentions exist")
	}
	if math.IsNaN(global) || math.IsNaN(sense) {
		t.Fatal("NaN coverage")
	}
}

func TestRunBreakingNews(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	s := testSystem(t)

	learned := &core.LearnedMethod{UseRelevance: true, Resource: relevance.Snippets, Options: ranksvm.Options{Seed: 3}}
	if err := learned.Fit(s.Dataset([]relevance.Resource{relevance.Snippets})); err != nil {
		t.Fatal(err)
	}
	rt := s.NewRuntime(learned.Model())

	// Pick a cold, detectable concept and compose a document mentioning it
	// alongside hot concepts.
	var cold, hot *world.Concept
	for i := range s.World.Concepts {
		c := &s.World.Concepts[i]
		if c.LowQuality() || c.Topic < 0 {
			continue
		}
		if s.Units.Lookup(c.Name) == nil || s.Units.Score(c.Name) < 0.35 {
			continue
		}
		if cold == nil || c.Interest < cold.Interest {
			if c != hot {
				cold = c
			}
		}
		if hot == nil || c.Interest > hot.Interest {
			hot = c
		}
	}
	if cold == nil || hot == nil || cold == hot {
		t.Skip("no suitable concept pair")
	}
	stories := newsgen.Generate(s.World, newsgen.Config{Seed: 987, NumStories: 1})
	rng := rand.New(rand.NewSource(5))
	doc, _ := s.World.ComposeDoc(world.ComposeOptions{Topic: cold.Topic, Sentences: 12},
		[]world.Mention{
			{Concept: cold, Relevant: true, Repeat: 2},
			{Concept: hot, Relevant: hot.Topic == cold.Topic},
		}, rng)
	_ = stories

	tracker := online.NewTracker(online.Config{HalfLifeTicks: 4, MinViews: 50, MaxBoost: 6})
	tracker.SetBaseline(cold.Name, 0.005)
	adj := online.NewAdjuster(rt, tracker, 3)

	result := RunBreakingNews(adj, tracker, cold.Name, doc, 11)
	t.Logf("breaking news: static=%d boosted=%d decayed=%d", result.StaticRank, result.BoostedRank, result.DecayedRank)
	if result.BoostedRank > result.StaticRank {
		t.Errorf("spike did not improve rank: %d -> %d", result.StaticRank, result.BoostedRank)
	}
	if result.BoostedRank != 1 {
		t.Errorf("viral concept should reach rank 1 during the spike, got %d", result.BoostedRank)
	}
	if result.DecayedRank < result.BoostedRank {
		t.Errorf("rank should sink after the spike: boosted=%d decayed=%d", result.BoostedRank, result.DecayedRank)
	}
}
