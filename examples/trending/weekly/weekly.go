// Package weekly is the multi-week query-log series behind the trending
// example, built on querylog's exported API. Nothing served or trained reads
// it, so it lives outside the product, which may not import it (make island).
package weekly

import (
	"math"
	"math/rand"
	"strings"

	"contextrank/internal/querylog"
	"contextrank/internal/world"
)

// The paper's §IV-C notes that "the interestingness of a concept can change
// in time depending on the world's state as news breaks, trends change,
// etc. To identify this case, new features can be included to the space
// that can identify spikes or changes in news articles and/or query logs."
// This file provides the substrate: a multi-week query-log series in which
// concept popularity drifts and occasionally spikes, plus the trend
// features mined from it.

// Series is a sequence of weekly logs, most recent last.
type Series struct {
	Weeks []*querylog.Log
}

// SeriesConfig parameterizes multi-week generation.
type SeriesConfig struct {
	Seed  int64
	Weeks int // default 6
	// DriftSigma is the weekly log-normal drift of every concept's
	// popularity. Default 0.15.
	DriftSigma float64
	// SpikeProb is the chance per concept per week of a news spike.
	// Default 0.01.
	SpikeProb float64
	// SpikeFactor multiplies a spiking concept's query volume. Default 8.
	SpikeFactor float64
	// Log configures each week's base generation.
	Log querylog.Config
}

func (c SeriesConfig) withDefaults() SeriesConfig {
	if c.Weeks == 0 {
		c.Weeks = 6
	}
	if c.DriftSigma == 0 {
		c.DriftSigma = 0.15
	}
	if c.SpikeProb == 0 {
		c.SpikeProb = 0.01
	}
	if c.SpikeFactor == 0 {
		c.SpikeFactor = 8
	}
	return c
}

// GenerateSeries produces Weeks weekly logs. Week-to-week popularity
// multipliers follow a per-concept random walk with occasional spikes; the
// spiking concepts of the final week are returned so tests and experiments
// know the ground truth.
func GenerateSeries(w *world.World, cfg SeriesConfig) (*Series, []string) {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))

	mult := make([]float64, len(w.Concepts))
	for i := range mult {
		mult[i] = 1
	}
	s := &Series{}
	var lastSpikes []string
	for week := 0; week < cfg.Weeks; week++ {
		var spikes []string
		for i := range mult {
			mult[i] *= math.Exp(cfg.DriftSigma * rng.NormFloat64())
			// Spikes decay next week via the drift clamp below.
			if rng.Float64() < cfg.SpikeProb {
				mult[i] *= cfg.SpikeFactor
				spikes = append(spikes, w.Concepts[i].Name)
			}
			// Clamp the walk so popularity stays within two orders.
			if mult[i] > 20 {
				mult[i] = 20
			} else if mult[i] < 0.05 {
				mult[i] = 0.05
			}
		}
		logCfg := cfg.Log
		logCfg.Seed = cfg.Seed + int64(week)*101 + 1
		base := querylog.Generate(w, logCfg)
		weekLog := scaleLog(base, w, mult)
		if len(spikes) > 0 {
			// Breaking news *creates* query volume: even a previously
			// unsearched concept gets a burst when it hits the headlines.
			counts := make(map[string]int, weekLog.NumDistinct())
			for _, q := range weekLog.Queries {
				counts[q.Text] = q.Freq
			}
			for _, name := range spikes {
				counts[name] += 150 + int(50*cfg.SpikeFactor*rng.Float64())
			}
			weekLog = querylog.FromCounts(counts)
		}
		s.Weeks = append(s.Weeks, weekLog)
		lastSpikes = spikes
		// Spikes are transient: pull the multiplier back down.
		for i := range mult {
			if mult[i] > 3 {
				mult[i] = math.Sqrt(mult[i])
			}
		}
	}
	return s, lastSpikes
}

// scaleLog rescales the frequencies of a week's queries according to each
// concept's popularity multiplier (queries not tied to a concept keep their
// frequency).
func scaleLog(base *querylog.Log, w *world.World, mult []float64) *querylog.Log {
	counts := make(map[string]int, base.NumDistinct())
	for _, q := range base.Queries {
		f := q.Freq
		// A query is attributed to the concept it contains, if any.
		if c := conceptOf(w, strings.Fields(q.Text)); c != nil {
			f = int(float64(f) * mult[c.ID])
			if f < 1 {
				f = 1
			}
		}
		counts[q.Text] += f
	}
	return querylog.FromCounts(counts)
}

// conceptOf returns the world concept contained in the query's terms, if
// exactly identifiable (longest match wins).
func conceptOf(w *world.World, terms []string) *world.Concept {
	var best *world.Concept
	for n := len(terms); n >= 1; n-- {
		for i := 0; i+n <= len(terms); i++ {
			name := strings.Join(terms[i:i+n], " ")
			if c := w.ConceptByName(name); c != nil {
				if best == nil || len(c.Terms) > len(best.Terms) {
					best = c
				}
			}
		}
		if best != nil {
			return best
		}
	}
	return nil
}

// Current returns the most recent week's log.
func (s *Series) Current() *querylog.Log { return s.Weeks[len(s.Weeks)-1] }

// TrendFeature returns the spike signal for a concept: the log-ratio of the
// current week's exact-query frequency to the trailing mean of the previous
// weeks (0 when there is no history or no traffic). Positive values mean
// the concept is hotter than usual — the §IV-C feature candidate.
func (s *Series) TrendFeature(concept string) float64 {
	n := len(s.Weeks)
	if n < 2 {
		return 0
	}
	current := float64(s.Current().FreqExact(concept))
	past := 0.0
	for _, week := range s.Weeks[:n-1] {
		past += float64(week.FreqExact(concept))
	}
	past /= float64(n - 1)
	return math.Log((current + 1) / (past + 1))
}

// Spiking returns the k concepts with the largest trend feature among the
// given names.
func (s *Series) Spiking(names []string, k int) []string {
	type scored struct {
		name  string
		trend float64
	}
	all := make([]scored, 0, len(names))
	for _, n := range names {
		all = append(all, scored{n, s.TrendFeature(n)})
	}
	// Insertion-sort the top k (names lists are small).
	for i := 1; i < len(all); i++ {
		for j := i; j > 0 && (all[j].trend > all[j-1].trend ||
			(all[j].trend == all[j-1].trend && all[j].name < all[j-1].name)); j-- {
			all[j], all[j-1] = all[j-1], all[j]
		}
	}
	if k > len(all) {
		k = len(all)
	}
	out := make([]string, k)
	for i := 0; i < k; i++ {
		out[i] = all[i].name
	}
	return out
}
