package framework

import (
	"context"
	"reflect"
	"testing"

	"contextrank/internal/detect"
	"contextrank/internal/features"
	"contextrank/internal/querylog"
	"contextrank/internal/ranksvm"
	"contextrank/internal/relevance"
	"contextrank/internal/units"

	"contextrank/internal/corpus"
)

// resilienceRuntime builds a runtime whose unit detector knows two
// concepts with very different dictionary priors, so both the full and
// the degraded ranking have a determinate winner.
func resilienceRuntime(t testing.TB) *Runtime {
	t.Helper()
	return resilienceRuntimeWith(t, BuildKeywordPacks(relevance.NewStore(map[string]corpus.Vector{
		"alphaword": {{Term: "ctx", Weight: 5}},
		"betaword":  {{Term: "ctx", Weight: 4}},
	})))
}

// resilienceRuntimeWith is resilienceRuntime over the given keyword packs.
func resilienceRuntimeWith(t testing.TB, packs *KeywordPacks) *Runtime {
	t.Helper()
	hot := features.Fields{FreqExact: 9, FreqPhraseContained: 10, NumberOfChars: 9, ConceptSize: 1}
	cold := features.Fields{FreqExact: 1, FreqPhraseContained: 1, NumberOfChars: 8, ConceptSize: 1}
	table := BuildInterestTable([]string{"alphaword", "betaword"}, func(n string) features.Fields {
		if n == "alphaword" {
			return hot
		}
		return cold
	})
	var instances []ranksvm.Instance
	for g := 0; g < 6; g++ {
		instances = append(instances,
			ranksvm.Instance{Features: features.AppendRelevance(hot.Expand(features.AllGroups()), 1, 1), Label: 0.1, Group: g},
			ranksvm.Instance{Features: features.AppendRelevance(cold.Expand(features.AllGroups()), 0, 0), Label: 0.01, Group: g},
		)
	}
	model, err := ranksvm.Train(instances, ranksvm.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	log := querylog.FromCounts(map[string]int{"alphaword": 5000, "betaword": 4000, "ctx": 100})
	us := units.Extract(log, units.Config{})
	return NewRuntime(detect.New(nil, us), table, packs, model)
}

const resilienceDoc = "the alphaword met the betaword near ctx; email a@b.com"

// TestAnnotateCtxBackgroundEqualsAnnotate: the context-aware entry point
// is the same pipeline; an uncancellable context must change nothing.
func TestAnnotateCtxBackgroundEqualsAnnotate(t *testing.T) {
	rt := resilienceRuntime(t)
	want := rt.Annotate(resilienceDoc, 0)
	got, err := rt.AnnotateCtx(context.Background(), resilienceDoc, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("AnnotateCtx diverged from Annotate:\n%+v\nvs\n%+v", got, want)
	}
}

func TestAnnotateCtxCanceledBeforeStart(t *testing.T) {
	rt := resilienceRuntime(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	before := rt.bytesProcessed.Load()
	anns, err := rt.AnnotateCtx(ctx, resilienceDoc, 0)
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if anns != nil {
		t.Fatalf("canceled annotate returned annotations: %+v", anns)
	}
	if rt.bytesProcessed.Load() != before {
		t.Fatal("abandoned request was recorded in the throughput accumulators")
	}
}

func TestAnnotateDegradedRanksByDictionaryPrior(t *testing.T) {
	rt := resilienceRuntime(t)
	anns := rt.AnnotateDegraded(resilienceDoc, 0)
	if len(anns) == 0 {
		t.Fatal("no degraded annotations")
	}
	// Patterns first, as in the full pipeline.
	if anns[0].Detection.Kind != detect.KindPattern {
		t.Fatalf("pattern entity not first: %+v", anns[0])
	}
	var concepts []string
	for _, a := range anns {
		if a.Detection.Kind != detect.KindPattern {
			concepts = append(concepts, a.Detection.Norm)
			if a.Relevance != 0 {
				t.Fatalf("degraded path computed relevance: %+v", a)
			}
		}
	}
	if len(concepts) < 2 || concepts[0] != "alphaword" {
		t.Fatalf("dictionary prior should rank alphaword first: %v", concepts)
	}
	// Top-1 keeps only the highest-prior concept (plus patterns).
	for _, a := range rt.AnnotateDegraded(resilienceDoc, 1) {
		if a.Detection.Kind != detect.KindPattern && a.Detection.Norm != "alphaword" {
			t.Fatalf("top-1 degraded kept %q", a.Detection.Norm)
		}
	}
}

// TestAnnotateDegradedDeterministic: the degraded comparator has no float
// relevance to tie-break on, so byte-identical reruns are the contract.
func TestAnnotateDegradedDeterministic(t *testing.T) {
	rt := resilienceRuntime(t)
	a := rt.AnnotateDegraded(resilienceDoc, 0)
	for i := 0; i < 5; i++ {
		if b := rt.AnnotateDegraded(resilienceDoc, 0); !reflect.DeepEqual(a, b) {
			t.Fatalf("run %d diverged", i)
		}
	}
}
