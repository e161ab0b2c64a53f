package online

import "testing"

// BenchmarkExtensionOnlineTracker measures the per-tick cost of the §VIII
// decayed-CTR tracker at production-like concept counts.
func BenchmarkExtensionOnlineTracker(b *testing.B) {
	tr := NewTracker(Config{})
	events := make([]Event, 500)
	for i := range events {
		events[i] = Event{Concept: "c" + string(rune('a'+i%26)) + string(rune('a'+i/26%26)), Views: 50, Clicks: 2}
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
