package main

import (
	"fmt"
	"io"
	"math/rand"

	"contextrank"
	"contextrank/internal/core"
	"contextrank/internal/experiments"
	"contextrank/internal/online"
	"contextrank/internal/world"
)

// runFeatureSelection reproduces the §IV-A negative result: the candidate
// features the paper evaluated and eliminated do not improve the model.
func runFeatureSelection(w io.Writer, s *core.System, seed int64) error {
	fmt.Fprintln(w, "== §IV-A feature selection (paper: eliminated candidates 'prove not to improve upon' the selected features)")
	selected, withEliminated, err := experiments.FeatureSelection(s, 5, seed)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "  %v\n  %v\n", selected, withEliminated)
	delta := 100 * (selected.WeightedErrorRate - withEliminated.WeightedErrorRate)
	fmt.Fprintf(w, "  adding the eliminated candidates changes the error by %+.2f points\n\n", -delta)
	return nil
}

// runSenses reproduces the §IV-C ambiguity discussion: sense-clustered
// keyword packs recover contexts the diluted global pack misses.
func runSenses(w io.Writer, s *core.System) {
	fmt.Fprintln(w, "== §IV-C ambiguous concepts (paper: 'there would be some good local clusters ... the scores can be boosted')")
	global, sense, n := experiments.SenseExperiment(s, 2)
	if n == 0 {
		fmt.Fprintln(w, "  no ambiguous mentions in the click corpus")
		return
	}
	fmt.Fprintf(w, "  %d ambiguous relevant mentions: global-pack coverage %.3f, best-sense coverage %.3f (%+.0f%%)\n\n",
		n, global, sense, 100*(sense-global)/global)
}

// runOnline reproduces the §VIII future-work scenario: live CTR spikes
// re-rank a breaking-news concept in real time.
func runOnline(w io.Writer, sys *contextrank.System, seed int64) error {
	fmt.Fprintln(w, "== §VIII online adaptation (paper future work: 'react intelligently to world events in real time')")
	ranker, err := sys.TrainRanker()
	if err != nil {
		return err
	}
	rt, s := ranker.Runtime(), sys.Internal()

	var cold, hot *world.Concept
	for i := range s.World.Concepts {
		c := &s.World.Concepts[i]
		if c.LowQuality() || c.Topic < 0 || s.Units.Score(c.Name) < 0.35 {
			continue
		}
		if cold == nil || c.Interest < cold.Interest {
			cold = c
		}
		if hot == nil || c.Interest > hot.Interest {
			hot = c
		}
	}
	if cold == nil || hot == nil || cold == hot {
		fmt.Fprintln(w, "  no suitable concept pair")
		return nil
	}
	rng := rand.New(rand.NewSource(seed + 31))
	doc, _ := s.World.ComposeDoc(world.ComposeOptions{Topic: cold.Topic, Sentences: 12},
		[]world.Mention{
			{Concept: cold, Relevant: true, Repeat: 2},
			{Concept: hot, Relevant: hot.Topic == cold.Topic},
		}, rng)

	tracker := online.NewTracker(online.Config{HalfLifeTicks: 4, MinViews: 50, MaxBoost: 6})
	tracker.SetBaseline(cold.Name, 0.005)
	adj := online.NewAdjuster(rt, tracker, 3)
	result := experiments.RunBreakingNews(adj, tracker, cold.Name, doc, seed+32)
	fmt.Fprintf(w, "  concept %q (interest %.2f): rank %d before the spike -> %d during -> %d after decay\n\n",
		result.Concept, cold.Interest, result.StaticRank, result.BoostedRank, result.DecayedRank)
	return nil
}
