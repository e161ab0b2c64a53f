// Summarizer: the text-summarization application from the paper's
// introduction — search engines show snippets per result, and "providing
// effective summaries via key concepts can increase the overall user
// satisfaction", especially on small screens.
//
// The example summarizes documents as their top-k key concepts and evaluates
// summary quality against the ground truth: a good summary names the
// concepts the document is actually about (relevant, non-low-quality) and
// skips asides. It compares the learned ranker with a tf·idf-style baseline
// (the concept-vector score).
package main

import (
	"fmt"
	"log"
	"sort"

	"contextrank"
	"contextrank/internal/core"
	"contextrank/internal/detect"
	"contextrank/internal/experiments"
	"contextrank/internal/newsgen"
)

func main() {
	sys := contextrank.Build(contextrank.SmallConfig(42))
	ranker, err := sys.TrainRanker()
	if err != nil {
		log.Fatal(err)
	}
	inner := sys.Internal()

	docs := newsgen.Generate(inner.World, newsgen.Config{Seed: 777, NumStories: 80})
	const k = 3

	var learnedGood, learnedTotal, baselineGood, baselineTotal int
	for di := range docs {
		doc := &docs[di]
		relevant := make(map[string]bool)
		for _, m := range doc.Mentions {
			if m.Relevant && !m.Concept.LowQuality() {
				relevant[m.Concept.Name] = true
			}
		}

		for _, kw := range ranker.Keywords(doc.Text, k) {
			learnedTotal++
			if relevant[kw] {
				learnedGood++
			}
		}
		for _, kw := range baselineSummary(inner, doc.Text, k) {
			baselineTotal++
			if relevant[kw] {
				baselineGood++
			}
		}
	}

	fmt.Printf("summaries of %d documents at k=%d key concepts each:\n", len(docs), k)
	fmt.Printf("  concept-vector baseline: %5.1f%% of summary slots name a core concept\n",
		100*float64(baselineGood)/float64(baselineTotal))
	fmt.Printf("  learned ranker:          %5.1f%% of summary slots name a core concept\n",
		100*float64(learnedGood)/float64(learnedTotal))

	fmt.Println("\nexample summary:")
	doc := &docs[3]
	fmt.Printf("  document (%d bytes): %.120s...\n", len(doc.Text), doc.Text)
	fmt.Printf("  summary: %v\n", ranker.Keywords(doc.Text, k))
}

// baselineSummary ranks the document's detected concepts by concept-vector
// score (the production baseline) and returns the top k.
func baselineSummary(inner *core.System, text string, k int) []string {
	vec := experiments.Baseline(inner).ConceptVector(text).Map()
	seen := make(map[string]bool)
	type scored struct {
		name string
		w    float64
	}
	var candidates []scored
	for _, d := range inner.Pipeline.Detect(text) {
		if d.Kind == detect.KindPattern || seen[d.Norm] {
			continue
		}
		seen[d.Norm] = true
		candidates = append(candidates, scored{name: d.Norm, w: vec[d.Norm]})
	}
	sort.Slice(candidates, func(i, j int) bool {
		if candidates[i].w != candidates[j].w {
			return candidates[i].w > candidates[j].w
		}
		return candidates[i].name < candidates[j].name
	})
	out := make([]string, 0, k)
	for i := 0; i < k && i < len(candidates); i++ {
		out = append(out, candidates[i].name)
	}
	return out
}
