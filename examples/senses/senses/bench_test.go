package senses

import (
	"testing"

	"contextrank"
)

// BenchmarkExtensionSenses regenerates the §IV-C sense-clustering coverage
// boost for ambiguous concepts. The example sits outside the product, so
// `make bench` runs it once (bit-rot check) and guards nothing.
func BenchmarkExtensionSenses(b *testing.B) {
	s := contextrank.Build(contextrank.SmallConfig(42)).Internal()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		global, sense, n := Experiment(s, 2)
		if n == 0 {
			b.Skip("no ambiguous mentions")
		}
		b.ReportMetric(1000*global, "globalCov-e3")
		b.ReportMetric(1000*sense, "senseCov-e3")
	}
}
