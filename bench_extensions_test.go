package contextrank

// Benchmarks for the extension subsystems (§IV-A/§IV-C/§VIII discussions
// and the §VI memory optimizations): these complement the per-table
// benchmarks in bench_test.go.

import (
	"bytes"
	"testing"

	"contextrank/internal/core"
	"contextrank/internal/experiments"
	"contextrank/internal/framework"
	"contextrank/internal/online"
	"contextrank/internal/ranksvm"
	"contextrank/internal/relevance"
)

// BenchmarkExtensionFeatureSelection regenerates the §IV-A negative result:
// the eliminated candidate features do not move the error materially.
func BenchmarkExtensionFeatureSelection(b *testing.B) {
	s := benchSystem(b)
	for i := 0; i < b.N; i++ {
		selected, withEliminated, err := experiments.FeatureSelection(s, 3, 42)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*selected.WeightedErrorRate, "selected%")
		b.ReportMetric(100*withEliminated.WeightedErrorRate, "withEliminated%")
	}
}

// BenchmarkExtensionSenses regenerates the §IV-C sense-clustering coverage
// boost for ambiguous concepts.
func BenchmarkExtensionSenses(b *testing.B) {
	s := benchSystem(b)
	for i := 0; i < b.N; i++ {
		global, sense, n := experiments.SenseExperiment(s, 2)
		if n == 0 {
			b.Skip("no ambiguous mentions")
		}
		b.ReportMetric(1000*global, "globalCov-e3")
		b.ReportMetric(1000*sense, "senseCov-e3")
	}
}

// BenchmarkExtensionOnlineTracker measures the per-tick cost of the §VIII
// decayed-CTR tracker at production-like concept counts.
func BenchmarkExtensionOnlineTracker(b *testing.B) {
	tr := online.NewTracker(online.Config{})
	events := make([]online.Event, 500)
	for i := range events {
		events[i] = online.Event{Concept: "c" + string(rune('a'+i%26)) + string(rune('a'+i/26%26)), Views: 50, Clicks: 2}
	}
	for _, e := range events {
		tr.SetBaseline(e.Concept, 0.03)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Tick(events)
	}
}

// BenchmarkExtensionBundleSaveLoad measures offline-artifact persistence.
func BenchmarkExtensionBundleSaveLoad(b *testing.B) {
	s := benchSystem(b)
	learned := &core.LearnedMethod{UseRelevance: true, Resource: relevance.Snippets, Options: ranksvm.Options{Seed: 42}}
	if err := learned.Fit(s.Dataset([]relevance.Resource{relevance.Snippets})); err != nil {
		b.Fatal(err)
	}
	rt := s.NewRuntime(learned.Model())
	bundle := &framework.Bundle{Interest: rt.Interest, Packs: rt.Packs, Model: rt.Model}
	var buf bytes.Buffer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := bundle.Save(&buf); err != nil {
			b.Fatal(err)
		}
		if _, err := framework.LoadBundle(bytes.NewReader(buf.Bytes())); err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(buf.Len()), "bundleBytes")
	}
}
