// Trending: the paper's §IV-C and §VIII extensions working together. A
// multi-week query-log series reveals which concepts are spiking
// (week-over-week trend features), and the online CTR tracker re-ranks a
// live document the moment a spike shows up in the click stream — "react
// intelligently to world events in real time".
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"

	"contextrank"
	"contextrank/examples/trending/online"
	"contextrank/examples/trending/weekly"
	"contextrank/internal/world"
)

func main() {
	seed := flag.Int64("seed", 42, "base seed; the series and composition rngs use fixed offsets of it")
	flag.Parse()

	sys := contextrank.Build(contextrank.SmallConfig(*seed))
	inner := sys.Internal()
	ranker, err := sys.TrainRanker()
	if err != nil {
		log.Fatal(err)
	}

	// Part 1: trend mining over a six-week query-log series.
	series, trueSpikes := weekly.GenerateSeries(inner.World, weekly.SeriesConfig{
		Seed: *seed * 101, Weeks: 6, SpikeProb: 0.02,
	})
	names := make([]string, len(inner.World.Concepts))
	for i := range inner.World.Concepts {
		names[i] = inner.World.Concepts[i].Name
	}
	fmt.Printf("query-log series: %d weeks; ground-truth spikes this week: %d\n",
		len(series.Weeks), len(trueSpikes))
	fmt.Println("top trending concepts by week-over-week query growth:")
	for _, name := range series.Spiking(names, 5) {
		fmt.Printf("  %-40q trend=%+.2f\n", name, series.TrendFeature(name))
	}

	// Part 2: live re-ranking. Compose a story that mentions a spiking
	// concept next to an evergreen hot one, then stream a click spike.
	var spiker *world.Concept
	for _, name := range series.Spiking(names, 10) {
		c := inner.World.ConceptByName(name)
		if c != nil && c.Topic >= 0 && !c.LowQuality() && inner.Units.Score(c.Name) >= 0.35 {
			spiker = c
			break
		}
	}
	if spiker == nil {
		fmt.Println("no detectable spiking concept this seed")
		return
	}
	var evergreen *world.Concept
	for i := range inner.World.Concepts {
		c := &inner.World.Concepts[i]
		if c.Interest > 0.8 && c.ID != spiker.ID && inner.Units.Score(c.Name) >= 0.35 {
			evergreen = c
			break
		}
	}
	rng := rand.New(rand.NewSource(*seed + 7))
	doc, _ := inner.World.ComposeDoc(world.ComposeOptions{Topic: spiker.Topic, Sentences: 12},
		[]world.Mention{
			{Concept: spiker, Relevant: true, Repeat: 2},
			{Concept: evergreen, Relevant: evergreen.Topic == spiker.Topic},
		}, rng)

	tracker := online.NewTracker(online.Config{HalfLifeTicks: 4, MinViews: 50, MaxBoost: 6})
	tracker.SetBaseline(spiker.Name, 0.005)
	adj := online.NewAdjuster(ranker.Runtime(), tracker, 3)

	result := online.RunBreakingNews(adj, tracker, spiker.Name, doc, 99)
	fmt.Printf("\nbreaking-news re-ranking for %q (latent interest %.2f):\n", spiker.Name, spiker.Interest)
	fmt.Printf("  rank before the click spike: %d\n", result.StaticRank)
	fmt.Printf("  rank during the spike:       %d\n", result.BoostedRank)
	fmt.Printf("  rank after the spike decays: %d\n", result.DecayedRank)
}
