package experiments

import (
	"math/rand"

	"contextrank/internal/core"
	"contextrank/internal/online"
	"contextrank/internal/ranksvm"
	"contextrank/internal/relevance"
)

// This file drives the experiments around the paper's discussion sections:
// the feature-selection negative result (§IV-A), the sense-clustering boost
// for ambiguous concepts (§IV-C), and the online CTR-adaptation scenario
// (§VIII future work).

// FeatureSelection reproduces the paper's feature-selection outcome: the
// candidate features it evaluated and eliminated (cosine-similar query
// frequency, any-order result count, per-term idf) "prove not to improve
// upon the features mentioned above". Returns the cross-validated results
// with and without the eliminated candidates.
func FeatureSelection(s *core.System, folds int, seed int64) (selected, withEliminated Result, err error) {
	groups := s.Dataset(nil)
	// Dataset extracts only the selected features; the eliminated candidates
	// are this experiment's alone, extracted once per distinct concept.
	var names []string
	index := make(map[string]int)
	for gi := range groups {
		for _, ex := range groups[gi].Examples {
			if _, ok := index[ex.Concept.Name]; !ok {
				index[ex.Concept.Name] = len(names)
				names = append(names, ex.Concept.Name)
			}
		}
	}
	extended := s.Extractor.BatchExtended(names)
	for gi := range groups {
		for ei := range groups[gi].Examples {
			ex := &groups[gi].Examples[ei]
			ex.Extended = extended[index[ex.Concept.Name]]
		}
	}
	c := cv{groups: groups, folds: folds, seed: seed}
	selected = c.run(&core.LearnedMethod{Options: ranksvm.Options{Seed: seed}})
	withEliminated = c.run(&core.LearnedMethod{
		Label:         "All Features + Eliminated Candidates",
		UseEliminated: true,
		Options:       ranksvm.Options{Seed: seed},
	})
	return selected, withEliminated, c.err
}

// SenseExperiment measures the §IV-C ambiguity extension: relevance scoring
// with per-sense keyword packs versus the global pack, restricted to
// ambiguous concepts' mentions. Returns the mean coverage-normalized
// relevance of ambiguous relevant mentions under each scorer — the sense
// packs should recover contexts the diluted global pack misses.
func SenseExperiment(s *core.System, maxSenses int) (globalCoverage, senseCoverage float64, mentions int) {
	store := s.RelevanceStore(relevance.Snippets)

	// Collect ambiguous concepts that appear in the click corpus.
	ambiguous := make(map[string]bool)
	for i := range s.World.Concepts {
		c := &s.World.Concepts[i]
		if c.Ambiguous() && !c.LowQuality() {
			ambiguous[c.Name] = true
		}
	}
	if len(ambiguous) == 0 {
		return 0, 0, 0
	}
	names := make([]string, 0, len(ambiguous))
	for n := range ambiguous {
		names = append(names, n)
	}
	senses := relevance.BuildSenseStore(s.Miner, names, maxSenses)

	ctx := store.AcquireCtx()
	defer store.ReleaseCtx(ctx)
	var globalSum, senseSum float64
	for _, wg := range s.Groups {
		for _, e := range wg.Entities {
			if !ambiguous[e.Concept.Name] || !e.Relevant {
				continue
			}
			ctx.SetAround(wg.Text, e.Position)
			globalSum += store.NormalizedScoreCtx(e.Concept.Name, ctx)
			stems := relevance.ContextStemsAround(wg.Text, e.Position)
			bestTotal := 0.0
			for _, sense := range senses.Senses(e.Concept.Name) {
				if t := sense.Keywords.Sum(); t > bestTotal {
					bestTotal = t
				}
			}
			if bestTotal > 0 {
				senseSum += senses.Score(e.Concept.Name, stems) / bestTotal
			}
			mentions++
		}
	}
	if mentions == 0 {
		return 0, 0, 0
	}
	return globalSum / float64(mentions), senseSum / float64(mentions), mentions
}

// BreakingNews is the outcome of the §VIII online-adaptation experiment.
type BreakingNews struct {
	// Concept is the spiking concept.
	Concept string
	// StaticRank and BoostedRank are the concept's 1-based rank in its
	// document under the static model and with the online adjuster during
	// the spike.
	StaticRank, BoostedRank int
	// DecayedRank is the boosted rank after the spike subsides.
	DecayedRank int
}

// RunBreakingNews reproduces the §VIII scenario end to end against a
// trained runtime wrapped in an online adjuster: a cold concept suddenly
// "goes viral" (its live CTR far exceeds its baseline); the online tracker
// must float it to the top of its documents while the spike lasts and let
// it sink afterwards. The static model, having been trained on historical
// data, would keep ranking it low throughout. docText must mention the
// concept.
func RunBreakingNews(adj *online.Adjuster, tracker *online.Tracker, concept, docText string, seed int64) BreakingNews {
	rng := rand.New(rand.NewSource(seed))
	out := BreakingNews{Concept: concept}

	rankOf := func() int {
		anns := adj.Annotate(docText, 0)
		rank := 0
		for _, a := range anns {
			if a.Detection.PatternType != "" {
				continue
			}
			rank++
			if a.Detection.Norm == concept {
				return rank
			}
		}
		return rank + 1
	}

	out.StaticRank = rankOf()

	// The spike: live CTR 20x the baseline for a stretch of ticks.
	for i := 0; i < 15; i++ {
		tracker.Tick([]online.Event{{
			Concept: concept,
			Views:   400 + rng.Intn(200),
			Clicks:  60 + rng.Intn(30),
		}})
	}
	out.BoostedRank = rankOf()

	// The spike ends: traffic returns to the baseline rate.
	for i := 0; i < 60; i++ {
		tracker.Tick([]online.Event{{
			Concept: concept,
			Views:   400,
			Clicks:  2,
		}})
	}
	out.DecayedRank = rankOf()
	return out
}
