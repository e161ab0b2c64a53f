package senses

import (
	"contextrank/internal/core"
	"contextrank/internal/relevance"
	"contextrank/internal/stem"
	"contextrank/internal/textproc"
)

// Experiment measures the §IV-C ambiguity extension: relevance scoring
// with per-sense keyword packs versus the global pack, restricted to
// ambiguous concepts' mentions. Returns the mean coverage-normalized
// relevance of ambiguous relevant mentions under each scorer — the sense
// packs should recover contexts the diluted global pack misses.
func Experiment(s *core.System, maxSenses int) (globalCoverage, senseCoverage float64, mentions int) {
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
	senses := BuildStore(s.Engine, s.Miner, names, maxSenses)

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
			lo, hi := relevance.LocalWindow(wg.Text, e.Position)
			stems := contextStems(wg.Text[lo:hi])
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

// contextStems is the stemmed content-word set of a context, the form
// Store.Score reads.
func contextStems(text string) map[string]bool {
	out := make(map[string]bool)
	for _, t := range textproc.ContentWords(text) {
		out[stem.Stem(t)] = true
	}
	return out
}
