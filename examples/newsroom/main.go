// Newsroom: the paper's production scenario (§III, §V-C). News stories are
// annotated with contextual shortcuts; the learned ranker picks the top-3
// entities per story instead of annotating everything, which in the paper
// halved views while keeping clicks — doubling CTR.
//
// The example compares the baseline (annotate all detected entities, ranked
// by concept-vector score) with the learned ranker on fresh stories, and
// simulates a week of reader traffic over both.
package main

import (
	"fmt"
	"log"

	"contextrank"
	"contextrank/internal/core"
	"contextrank/internal/experiments"
	"contextrank/internal/newsgen"
	"contextrank/internal/ranksvm"
	"contextrank/internal/relevance"
)

func main() {
	sys := contextrank.Build(contextrank.SmallConfig(42))
	inner := sys.Internal()

	// Train the combined model on the click corpus.
	learned := &core.LearnedMethod{
		UseRelevance: true,
		Resource:     relevance.Snippets,
		Options:      ranksvm.Options{Seed: 42},
	}
	if err := learned.Fit(inner.Dataset([]relevance.Resource{relevance.Snippets})); err != nil {
		log.Fatal(err)
	}
	baseline := &experiments.ConceptVectorMethod{Scorer: experiments.Baseline(inner)}

	// Fresh stories the model has never seen.
	stories := newsgen.Generate(inner.World, newsgen.Config{Seed: 4242, NumStories: 5})

	for si := range stories {
		story := &stories[si]
		g := inner.GroupFromStory(story, []relevance.Resource{relevance.Snippets})
		fmt.Printf("story %d (%d bytes, %d candidate entities)\n", story.ID, len(story.Text), len(g.Examples))
		printTop("  baseline top-3:", &g, baseline.Score(&g))
		printTop("  learned  top-3:", &g, learned.Score(&g))
		fmt.Println()
	}

	// Simulated production A/B over a week of traffic (paper §V-C:
	// views −52.5%, clicks −2.0%, CTR +100.1%).
	prod, err := experiments.ProductionExperiment(inner, 3, 300, 99)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("one week of traffic, annotate-all vs learned top-3:\n")
	fmt.Printf("  views  %+0.1f%%   clicks %+0.1f%%   CTR %+0.1f%%\n",
		prod.ViewsChangePct(), prod.ClicksChangePct(), prod.CTRChangePct())
}

func printTop(label string, g *core.Group, scores []float64) {
	fmt.Println(label)
	order := make([]int, len(scores))
	for i := range order {
		order[i] = i
	}
	for i := 0; i < len(order); i++ {
		for j := i + 1; j < len(order); j++ {
			if scores[order[j]] > scores[order[i]] {
				order[i], order[j] = order[j], order[i]
			}
		}
	}
	for k := 0; k < 3 && k < len(order); k++ {
		ex := g.Examples[order[k]]
		truth := "irrelevant aside"
		if ex.Concept.LowQuality() {
			truth = "low-quality phrase"
		} else if ex.Relevant {
			truth = fmt.Sprintf("relevant (degree %.2f)", ex.Degree)
		}
		fmt.Printf("    %-32q interest=%.2f  %s\n", ex.Concept.Name, ex.Concept.Interest, truth)
	}
}
