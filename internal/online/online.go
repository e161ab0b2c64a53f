// Package online implements the paper's future-work extension (§VIII): "an
// online version of this technique. In this scenario, the system would be
// able to respond to sudden fluctuations in click data, either boosting
// scores of low scoring concepts that are experiencing high CTRs, or
// punishing the scores of those experiencing low CTRs. This may allow the
// system to potentially react intelligently to world events in real time."
//
// The Tracker ingests a click stream (view/click events per concept),
// maintains exponentially-decayed CTR estimates, and compares them with
// each concept's long-run baseline CTR. The Adjuster converts the ratio
// into a bounded score boost that the runtime adds to the model score, so a
// breaking-news entity floats to the top within a configurable half-life
// and sinks back as its spike decays.
package online

import (
	"math"
	"sort"
	"sync"
)

// Event is one observation from the click instrumentation: a concept was
// shown views times and clicked clicks times during the tick.
type Event struct {
	Concept string
	Views   int
	Clicks  int
}

// Config tunes the tracker.
type Config struct {
	// HalfLifeTicks is the decay half-life of the moving CTR estimate in
	// ticks (a tick is whatever cadence the caller feeds events at, e.g.
	// 5 minutes of production traffic). Default 12.
	HalfLifeTicks float64
	// MinViews is the decayed-view mass required before the tracker trusts
	// a concept's moving CTR. Default 50.
	MinViews float64
	// MaxBoost bounds the score adjustment in either direction. Default 1.
	MaxBoost float64
}

// smoothing is the additive (Laplace) smoothing applied to both the moving
// and baseline CTR when forming the ratio.
const smoothing = 0.002

func (c Config) withDefaults() Config {
	if c.HalfLifeTicks == 0 {
		c.HalfLifeTicks = 12
	}
	if c.MinViews == 0 {
		c.MinViews = 50
	}
	if c.MaxBoost == 0 {
		c.MaxBoost = 1
	}
	return c
}

// state is one concept's decayed counters.
type state struct {
	views, clicks float64
	baseline      float64 // long-run CTR; 0 = unknown
}

// Tracker maintains decayed per-concept CTR estimates. It is safe for
// concurrent use: production frontends report clicks from many servers.
type Tracker struct {
	cfg   Config
	decay float64

	mu     sync.RWMutex
	states map[string]*state
}

// NewTracker creates a tracker.
func NewTracker(cfg Config) *Tracker {
	cfg = cfg.withDefaults()
	return &Tracker{
		cfg:    cfg,
		decay:  math.Exp(-math.Ln2 / cfg.HalfLifeTicks),
		states: make(map[string]*state),
	}
}

// SetBaseline records a concept's long-run CTR (mined from the weekly click
// reports the ranker was trained on). Concepts without a baseline use the
// global smoothing prior.
func (t *Tracker) SetBaseline(concept string, ctr float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.states[concept]
	if s == nil {
		s = &state{}
		t.states[concept] = s
	}
	s.baseline = ctr
}

// Tick applies one decay step and ingests the tick's events.
func (t *Tracker) Tick(events []Event) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.states {
		s.views *= t.decay
		s.clicks *= t.decay
	}
	for _, e := range events {
		s := t.states[e.Concept]
		if s == nil {
			s = &state{}
			t.states[e.Concept] = s
		}
		s.views += float64(e.Views)
		s.clicks += float64(e.Clicks)
	}
}

// Boost returns the bounded log-ratio adjustment for a concept:
//
//	boost = clamp( ln( (moving+ε) / (baseline+ε) ), ±MaxBoost )
//
// scaled by how much view mass backs the estimate (concepts below MinViews
// get proportionally damped, so thin evidence cannot swing rankings).
func (t *Tracker) Boost(concept string) float64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	s := t.states[concept]
	if s == nil || s.views == 0 {
		return 0
	}
	moving := s.clicks / s.views
	base := s.baseline
	raw := math.Log((moving + smoothing) / (base + smoothing))
	if raw > t.cfg.MaxBoost {
		raw = t.cfg.MaxBoost
	} else if raw < -t.cfg.MaxBoost {
		raw = -t.cfg.MaxBoost
	}
	confidence := s.views / (s.views + t.cfg.MinViews)
	return raw * confidence
}

// Hot returns the k concepts with the largest positive boosts — the
// "world events" view a newsroom dashboard would show.
func (t *Tracker) Hot(k int) []string {
	t.mu.RLock()
	names := make([]string, 0, len(t.states))
	for name := range t.states {
		names = append(names, name)
	}
	t.mu.RUnlock()
	sort.Slice(names, func(i, j int) bool {
		bi, bj := t.Boost(names[i]), t.Boost(names[j])
		switch {
		case bi > bj:
			return true
		case bi < bj:
			return false
		}
		return names[i] < names[j]
	})
	if k < len(names) {
		names = names[:k]
	}
	return names
}
