package online

import (
	"testing"

	"contextrank/internal/corpus"
	"contextrank/internal/detect"
	"contextrank/internal/features"
	"contextrank/internal/framework"
	"contextrank/internal/querylog"
	"contextrank/internal/ranksvm"
	"contextrank/internal/relevance"
	"contextrank/internal/units"
)

// miniRuntime builds a tiny runtime with two single-term concepts whose
// static model scores favor "alpha" over "beta".
func miniRuntime(t *testing.T) *framework.Runtime {
	t.Helper()
	store := relevance.NewStore(map[string]corpus.Vector{
		"alphaword": {{Term: "ctx", Weight: 5}},
		"betaword":  {{Term: "ctx", Weight: 5}},
	})
	packs := framework.BuildKeywordPacks(store)
	hot := features.Fields{FreqExact: 10, FreqPhraseContained: 12, NumberOfChars: 9, ConceptSize: 1}
	cold := features.Fields{FreqExact: 1, FreqPhraseContained: 2, NumberOfChars: 8, ConceptSize: 1}
	table := framework.BuildInterestTable([]string{"alphaword", "betaword"}, func(n string) features.Fields {
		if n == "alphaword" {
			return hot
		}
		return cold
	})
	var instances []ranksvm.Instance
	for g := 0; g < 8; g++ {
		hv := features.AppendRelevance(hot.Expand(features.AllGroups()), 0, 0)
		cv := features.AppendRelevance(cold.Expand(features.AllGroups()), 0, 0)
		instances = append(instances,
			ranksvm.Instance{Features: hv, Label: 0.1, Group: g},
			ranksvm.Instance{Features: cv, Label: 0.01, Group: g},
		)
	}
	model, err := ranksvm.Train(instances, ranksvm.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// A unit set the detector can find the two concepts with: both names
	// are top queries, so their unit scores clear the detection floor.
	log := querylog.FromCounts(map[string]int{
		"alphaword": 5000, "betaword": 4000, "ctx": 300, "today": 200,
	})
	us := units.Extract(log, units.Config{})
	return framework.NewRuntime(detect.New(nil, us), table, packs, model)
}

func TestAdjusterFlipsRanking(t *testing.T) {
	rt := miniRuntime(t)
	doc := "the alphaword and the betaword appeared together in ctx today"

	tr := NewTracker(Config{HalfLifeTicks: 3, MinViews: 10, MaxBoost: 5})
	tr.SetBaseline("alphaword", 0.05)
	tr.SetBaseline("betaword", 0.01)
	adj := NewAdjuster(rt, tr, 5)

	// Static order: alphaword first.
	before := adj.Annotate(doc, 2)
	if len(before) < 2 || before[0].Detection.Norm != "alphaword" {
		t.Fatalf("static order unexpected: %+v", names(before))
	}

	// betaword goes viral: its live CTR dwarfs its baseline.
	for i := 0; i < 20; i++ {
		tr.Tick([]Event{
			{Concept: "betaword", Views: 500, Clicks: 100},
			{Concept: "alphaword", Views: 500, Clicks: 25},
		})
	}
	after := adj.Annotate(doc, 2)
	if after[0].Detection.Norm != "betaword" {
		t.Fatalf("viral concept should rank first, got %v", names(after))
	}
}

func names(anns []framework.Annotation) []string {
	out := make([]string, len(anns))
	for i, a := range anns {
		out[i] = a.Detection.Norm
	}
	return out
}
