package online

import (
	"fmt"
	"math/rand"
	"testing"

	"contextrank"
	"contextrank/internal/world"
)

// TestRunBreakingNews replays the §VIII scenario as `cmd/experiments`
// printed it at small scale, seed 42 — the coldest and the hottest
// detectable concept in one composed story, the cold one's clicks spiking —
// and pins the line it printed.
func TestRunBreakingNews(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and trains a small system")
	}
	const seed = 42
	sys := contextrank.Build(contextrank.SmallConfig(seed))
	ranker, err := sys.TrainRanker()
	if err != nil {
		t.Fatal(err)
	}
	s := sys.Internal()

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
		t.Fatal("no suitable concept pair")
	}
	rng := rand.New(rand.NewSource(seed + 31))
	doc, _ := s.World.ComposeDoc(world.ComposeOptions{Topic: cold.Topic, Sentences: 12},
		[]world.Mention{
			{Concept: cold, Relevant: true, Repeat: 2},
			{Concept: hot, Relevant: hot.Topic == cold.Topic},
		}, rng)

	tracker := NewTracker(Config{HalfLifeTicks: 4, MinViews: 50, MaxBoost: 6})
	tracker.SetBaseline(cold.Name, 0.005)
	result := RunBreakingNews(NewAdjuster(ranker.Runtime(), tracker, 3), tracker, cold.Name, doc, seed+32)
	got := fmt.Sprintf("concept %q (interest %.2f): rank %d before the spike -> %d during -> %d after decay",
		result.Concept, cold.Interest, result.StaticRank, result.BoostedRank, result.DecayedRank)
	const want = `concept "steabeadogra trameern" (interest 0.00): rank 2 before the spike -> 1 during -> 2 after decay`
	if got != want {
		t.Fatalf("breaking news:\n got %s\nwant %s", got, want)
	}
}
