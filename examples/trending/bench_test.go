package main

import (
	"testing"

	"contextrank"
	"contextrank/examples/trending/weekly"
)

// BenchmarkExtensionTrendSeries measures multi-week trend mining. The
// example sits outside the product, so `make bench` runs it once (bit-rot
// check) and guards nothing.
func BenchmarkExtensionTrendSeries(b *testing.B) {
	w := contextrank.Build(contextrank.SmallConfig(42)).Internal().World
	names := make([]string, len(w.Concepts))
	for i := range w.Concepts {
		names[i] = w.Concepts[i].Name
	}
	series, _ := weekly.GenerateSeries(w, weekly.SeriesConfig{Seed: 9, Weeks: 4})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		series.Spiking(names, 10)
	}
}
