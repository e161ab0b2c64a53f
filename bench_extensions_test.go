package contextrank

// Benchmarks for the §IV-A feature-selection discussion and the §VI
// offline artifact: these complement the per-table benchmarks in
// bench_test.go. The §IV-C and §VIII extensions benchmark in their example
// packages.

import (
	"bytes"
	"testing"

	"contextrank/internal/core"
	"contextrank/internal/experiments"
	"contextrank/internal/framework"
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

// BenchmarkExtensionBundleSaveLoad measures offline-artifact persistence.
func BenchmarkExtensionBundleSaveLoad(b *testing.B) {
	s := benchSystem(b)
	learned := &core.LearnedMethod{UseRelevance: true, Resource: relevance.Snippets, Options: ranksvm.Options{Seed: 42}}
	if err := learned.Fit(s.Dataset([]relevance.Resource{relevance.Snippets})); err != nil {
		b.Fatal(err)
	}
	rt := s.RuntimeTables().Runtime(learned.Model())
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
