package online

import "math/rand"

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
func RunBreakingNews(adj *Adjuster, tracker *Tracker, concept, docText string, seed int64) BreakingNews {
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
		tracker.Tick([]Event{{
			Concept: concept,
			Views:   400 + rng.Intn(200),
			Clicks:  60 + rng.Intn(30),
		}})
	}
	out.BoostedRank = rankOf()

	// The spike ends: traffic returns to the baseline rate.
	for i := 0; i < 60; i++ {
		tracker.Tick([]Event{{
			Concept: concept,
			Views:   400,
			Clicks:  2,
		}})
	}
	out.DecayedRank = rankOf()
	return out
}
