package weekly

import (
	"testing"

	"contextrank/internal/querylog"
	"contextrank/internal/world"
)

func seriesFixture(t testing.TB) (*world.World, *Series, []string) {
	t.Helper()
	w := world.New(world.Config{Seed: 231, VocabSize: 1200, NumTopics: 8, NumConcepts: 150})
	s, spikes := GenerateSeries(w, SeriesConfig{Seed: 232, Weeks: 5, SpikeProb: 0.03})
	return w, s, spikes
}

func TestGenerateSeriesShape(t *testing.T) {
	_, s, _ := seriesFixture(t)
	if len(s.Weeks) != 5 {
		t.Fatalf("weeks = %d", len(s.Weeks))
	}
	for i, week := range s.Weeks {
		if week.NumDistinct() == 0 {
			t.Fatalf("week %d empty", i)
		}
	}
	if s.Current() != s.Weeks[4] {
		t.Fatal("Current should be the last week")
	}
}

func TestSpikingConceptsHaveHighTrend(t *testing.T) {
	w, s, spikes := seriesFixture(t)
	if len(spikes) == 0 {
		t.Skip("no spikes this seed")
	}
	names := make([]string, len(w.Concepts))
	for i := range w.Concepts {
		names[i] = w.Concepts[i].Name
	}
	// Every ground-truth spiker should rank inside the top slice of trend
	// scores.
	top := s.Spiking(names, len(spikes)*4+5)
	topSet := map[string]bool{}
	for _, n := range top {
		topSet[n] = true
	}
	hits := 0
	for _, sp := range spikes {
		if topSet[sp] {
			hits++
		}
	}
	if hits*2 < len(spikes) {
		t.Fatalf("only %d/%d spikers in the trend top", hits, len(spikes))
	}
	// And their trend feature is positive.
	for _, sp := range spikes {
		if tr := s.TrendFeature(sp); tr <= 0 {
			t.Errorf("spiker %q trend = %.2f, want positive", sp, tr)
		}
	}
}

func TestTrendFeatureStableConcept(t *testing.T) {
	w, s, spikes := seriesFixture(t)
	spiked := map[string]bool{}
	for _, sp := range spikes {
		spiked[sp] = true
	}
	// Non-spiking concepts should mostly have |trend| well below the spike
	// scale.
	big := 0
	total := 0
	for i := range w.Concepts {
		c := &w.Concepts[i]
		if spiked[c.Name] || c.Interest < 0.2 {
			continue
		}
		total++
		if tr := s.TrendFeature(c.Name); tr > 1.2 {
			big++
		}
	}
	if total > 0 && big*5 > total {
		t.Fatalf("%d/%d stable concepts look like spikes", big, total)
	}
}

func TestTrendFeatureDegenerate(t *testing.T) {
	s := &Series{Weeks: []*querylog.Log{querylog.FromCounts(map[string]int{"x": 5})}}
	if got := s.TrendFeature("x"); got != 0 {
		t.Fatalf("single-week trend = %v", got)
	}
	_, s2, _ := seriesFixture(t)
	if got := s2.TrendFeature("never queried concept"); got != 0 {
		t.Fatalf("unknown concept trend = %v", got)
	}
}

func TestGenerateSeriesDeterministic(t *testing.T) {
	w := world.New(world.Config{Seed: 233, VocabSize: 800, NumTopics: 6, NumConcepts: 60})
	s1, sp1 := GenerateSeries(w, SeriesConfig{Seed: 7, Weeks: 3})
	s2, sp2 := GenerateSeries(w, SeriesConfig{Seed: 7, Weeks: 3})
	if len(sp1) != len(sp2) {
		t.Fatal("spikes not deterministic")
	}
	for i := range s1.Weeks {
		if s1.Weeks[i].TotalFreq() != s2.Weeks[i].TotalFreq() {
			t.Fatal("weeks not deterministic")
		}
	}
}

func TestConceptOfLongestMatch(t *testing.T) {
	w := world.New(world.Config{Seed: 234, VocabSize: 800, NumTopics: 6, NumConcepts: 80})
	var multi *world.Concept
	for i := range w.Concepts {
		if len(w.Concepts[i].Terms) >= 2 {
			multi = &w.Concepts[i]
			break
		}
	}
	if multi == nil {
		t.Skip("no multi-term concept")
	}
	terms := append([]string{"prefix"}, multi.Terms...)
	got := conceptOf(w, terms)
	if got == nil || got.Name != multi.Name {
		t.Fatalf("conceptOf = %v, want %q", got, multi.Name)
	}
	if got := conceptOf(w, []string{"zzzz", "qqqq"}); got != nil {
		t.Fatalf("conceptOf random terms = %v", got)
	}
}
