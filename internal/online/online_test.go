package online

import (
	"math"
	"sync"
	"testing"
)

func TestBoostRespondsToSpike(t *testing.T) {
	tr := NewTracker(Config{HalfLifeTicks: 4, MinViews: 20})
	tr.SetBaseline("quiet concept", 0.01)

	// Warm up at baseline CTR.
	for i := 0; i < 20; i++ {
		tr.Tick([]Event{{Concept: "quiet concept", Views: 100, Clicks: 1}})
	}
	if b := tr.Boost("quiet concept"); math.Abs(b) > 0.1 {
		t.Fatalf("baseline-rate traffic should give ~0 boost, got %v", b)
	}

	// Breaking news: CTR jumps 10x.
	for i := 0; i < 10; i++ {
		tr.Tick([]Event{{Concept: "quiet concept", Views: 100, Clicks: 10}})
	}
	if b := tr.Boost("quiet concept"); b < 0.5 {
		t.Fatalf("spike should produce a strong positive boost, got %v", b)
	}

	// The spike ends; the boost must decay back toward zero.
	for i := 0; i < 40; i++ {
		tr.Tick([]Event{{Concept: "quiet concept", Views: 100, Clicks: 1}})
	}
	if b := tr.Boost("quiet concept"); b > 0.15 {
		t.Fatalf("boost should decay after the spike, got %v", b)
	}
}

func TestBoostPunishesUnderperformers(t *testing.T) {
	tr := NewTracker(Config{HalfLifeTicks: 4, MinViews: 20})
	tr.SetBaseline("overrated", 0.08)
	for i := 0; i < 20; i++ {
		tr.Tick([]Event{{Concept: "overrated", Views: 200, Clicks: 1}})
	}
	if b := tr.Boost("overrated"); b > -0.5 {
		t.Fatalf("low CTR vs baseline should punish, got %v", b)
	}
}

func TestBoostBounded(t *testing.T) {
	tr := NewTracker(Config{MaxBoost: 0.7, MinViews: 1})
	tr.SetBaseline("x", 0.0001)
	for i := 0; i < 30; i++ {
		tr.Tick([]Event{{Concept: "x", Views: 1000, Clicks: 900}})
	}
	if b := tr.Boost("x"); b > 0.7+1e-9 {
		t.Fatalf("boost exceeds MaxBoost: %v", b)
	}
}

func TestThinEvidenceDamped(t *testing.T) {
	tr := NewTracker(Config{MinViews: 1000})
	tr.SetBaseline("thin", 0.01)
	tr.Tick([]Event{{Concept: "thin", Views: 5, Clicks: 5}})
	if b := tr.Boost("thin"); b > 0.01 {
		t.Fatalf("5 views should not move rankings, got boost %v", b)
	}
}

func TestUnknownConceptZeroBoost(t *testing.T) {
	tr := NewTracker(Config{})
	if b := tr.Boost("never seen"); b != 0 {
		t.Fatalf("unknown concept boost = %v", b)
	}
	if s := tr.states["never seen"]; s != nil {
		t.Fatalf("unknown concept has state %+v", *s)
	}
}

func TestMovingCTRDecaysTowardRecent(t *testing.T) {
	tr := NewTracker(Config{HalfLifeTicks: 2})
	for i := 0; i < 10; i++ {
		tr.Tick([]Event{{Concept: "c", Views: 100, Clicks: 0}})
	}
	for i := 0; i < 10; i++ {
		tr.Tick([]Event{{Concept: "c", Views: 100, Clicks: 20}})
	}
	s := tr.states["c"]
	if ctr := s.clicks / s.views; ctr < 0.15 {
		t.Fatalf("moving CTR should approach the recent rate 0.2, got %v", ctr)
	}
}

func TestHotOrdering(t *testing.T) {
	tr := NewTracker(Config{HalfLifeTicks: 4, MinViews: 10})
	tr.SetBaseline("hot", 0.01)
	tr.SetBaseline("warm", 0.01)
	tr.SetBaseline("cold", 0.05)
	for i := 0; i < 15; i++ {
		tr.Tick([]Event{
			{Concept: "hot", Views: 100, Clicks: 15},
			{Concept: "warm", Views: 100, Clicks: 4},
			{Concept: "cold", Views: 100, Clicks: 1},
		})
	}
	hot := tr.Hot(2)
	if len(hot) != 2 || hot[0] != "hot" || hot[1] != "warm" {
		t.Fatalf("Hot = %v", hot)
	}
}

func TestTrackerConcurrency(t *testing.T) {
	tr := NewTracker(Config{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			name := string(rune('a' + g))
			for i := 0; i < 200; i++ {
				tr.Tick([]Event{{Concept: name, Views: 10, Clicks: 1}})
				tr.Boost(name)
				tr.Hot(3)
			}
		}(g)
	}
	wg.Wait()
	for g := 0; g < 8; g++ {
		if s := tr.states[string(rune('a'+g))]; s == nil || s.views == 0 {
			t.Fatalf("concept %c lost its events", 'a'+g)
		}
	}
}
