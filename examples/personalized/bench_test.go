package main

import (
	"testing"

	"contextrank"
	"contextrank/examples/personalized/personal"
)

// BenchmarkExtensionPersonalAffinity measures profile affinity lookups (the
// per-impression cost of personalization). The example sits outside the
// product, so `make bench` runs it once (bit-rot check) and guards nothing.
func BenchmarkExtensionPersonalAffinity(b *testing.B) {
	w := contextrank.Build(contextrank.SmallConfig(42)).Internal().World
	p := personal.NewProfile(w.Config.NumTopics)
	for i := range w.Concepts {
		p.Observe(&w.Concepts[i], i%13 == 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Affinity(&w.Concepts[i%len(w.Concepts)])
	}
}
