// Package clicksim simulates the click instrumentation of Contextual
// Shortcuts (paper §III): randomly sampled stories carry tracking, and a
// weekly report per story records the story text, the annotated entities
// with metadata, the number of views, and the number of clicks per entity.
//
// Clicks are sampled from a latent CTR model — the ground truth the ranker
// must recover:
//
//	CTR ∝ (w_i·Interest + w_r·relevance)² · quality-penalty · position-bias
//
// with Binomial sampling over the story's views, so low-traffic stories are
// noisy exactly the way real sampled click data is. The paper's data
// cleaning rules (≥30 views, ≥2 concepts, at least one concept with >3
// clicks) and the 2500/500 character windowing are implemented here too.
package clicksim

import (
	"math"
	"math/rand"

	"contextrank/internal/newsgen"
	"contextrank/internal/textproc"
	"contextrank/internal/world"
)

// EntityStat is one annotated entity's click record in a report.
type EntityStat struct {
	// Concept is the annotated concept.
	Concept *world.Concept
	// Relevant is the ground-truth relevance of the mention (hidden from
	// the ranker; used by the editorial simulator and tests).
	Relevant bool
	// Degree is the graded relevance in [0,1] (hidden from the ranker).
	Degree float64
	// Position is the byte offset of the entity in the story text.
	Position int
	// Clicks is the sampled click count.
	Clicks int
	// TrueCTR is the latent click probability (hidden from the ranker).
	TrueCTR float64
}

// CTR returns the observed click-through rate given views.
func (e EntityStat) CTR(views int) float64 {
	if views == 0 {
		return 0
	}
	return float64(e.Clicks) / float64(views)
}

// Report is one story's weekly click report.
type Report struct {
	// Story is the reported story.
	Story *newsgen.Story
	// Views is the sampled view count; "the number of times each entity was
	// viewed on that page is the same for all entities on that page".
	Views int
	// Entities are the annotated entities with click counts, in position
	// order.
	Entities []EntityStat
}

// Config parameterizes the click model.
type Config struct {
	Seed int64
}

// The click model's fixed parameters. MaxViews and CTRNoiseSigma are
// exported for simulators that draw traffic the way Simulate does.
const (
	// MaxViews bounds story traffic; views follow a power law in
	// [8, 8+MaxViews].
	MaxViews = 1500
	// CTRNoiseSigma is the σ of the per-mention log-normal CTR noise —
	// the irreducible variance no feature explains, which floors the
	// error rate the way real click data does.
	CTRNoiseSigma float64 = 0.3
	// baseCTR is the floor click probability.
	baseCTR float64 = 0.002
	// maxCTR scales the latent CTR.
	maxCTR float64 = 0.12
	// irrelevantFactor is the relevance credit of an off-topic mention.
	irrelevantFactor float64 = 0.2
	// positionBias controls the mild decay of CTR with byte position:
	// bias = 1/(1+positionBias·pos/2500).
	positionBias float64 = 0.35
	// interestWeight and relevanceWeight mix the latent factors:
	// contextual relevance is the stronger click driver, which is what
	// makes the relevance score such a useful feature in the paper.
	interestWeight  float64 = 0.45
	relevanceWeight float64 = 0.55
)

// TrueCTR computes the latent click probability for one mention. degree is
// the graded contextual relevance in [0,1].
func (c Config) TrueCTR(concept *world.Concept, degree float64, position int) float64 {
	rel := irrelevantFactor + float64((1-irrelevantFactor)*degree)
	appeal := float64(interestWeight*concept.Interest) + float64(relevanceWeight*rel)
	// Quadratic response concentrates clicks on the best few entities
	// ("Few concepts on a document actually get most of the clicks").
	ctr := baseCTR + float64(maxCTR*appeal*appeal)
	// Low-quality phrases rarely earn clicks regardless of placement.
	ctr *= 0.3 + float64(0.7*concept.Quality)
	// Mild position bias; the evaluation fights it with windowing.
	ctr /= 1 + positionBias*float64(position)/2500.0
	return ctr
}

// Simulate produces one weekly report per story.
func Simulate(stories []newsgen.Story, cfg Config) []Report {
	rng := rand.New(rand.NewSource(cfg.Seed))
	reports := make([]Report, 0, len(stories))
	for i := range stories {
		story := &stories[i]
		views := 8 + int(float64(MaxViews)*math.Pow(rng.Float64(), 2.5))
		r := Report{Story: story, Views: views}
		for _, m := range story.Mentions {
			ctr := cfg.TrueCTR(m.Concept, m.Degree, m.Position)
			// Per-mention unexplained variance (headline placement, photo
			// adjacency, time of day, ...).
			ctr *= math.Exp(CTRNoiseSigma * rng.NormFloat64())
			if ctr > 0.95 {
				ctr = 0.95
			}
			clicks := binomial(rng, views, ctr)
			r.Entities = append(r.Entities, EntityStat{
				Concept:  m.Concept,
				Relevant: m.Relevant,
				Degree:   m.Degree,
				Position: m.Position,
				Clicks:   clicks,
				TrueCTR:  ctr,
			})
		}
		reports = append(reports, r)
	}
	return reports
}

// binomial samples Binomial(n, p). For the small n·p of click data a direct
// Bernoulli loop is fine and exact.
func binomial(rng *rand.Rand, n int, p float64) int {
	if p <= 0 {
		return 0
	}
	if p >= 1 {
		return n
	}
	k := 0
	for i := 0; i < n; i++ {
		if rng.Float64() < p {
			k++
		}
	}
	return k
}

// Cleaning thresholds from §V-A.1.
const (
	// MinViews: "if the number of sampled views is less than 30".
	MinViews = 30
	// MinConcepts: "if the story contained only one concept".
	MinConcepts = 2
	// MinTopClicks: "if no concept has more than three sampled clicks".
	MinTopClicks = 3
)

// Clean drops noisy reports per the paper's three rules and returns the
// retained reports.
func Clean(reports []Report) []Report {
	// First pass: find the first dropped report. If nothing is dropped —
	// the common case on simulated logs — the input slice is returned
	// as-is, sharing its backing array. The aliasing contract: Clean's
	// result must be treated as read-only alongside the input; neither
	// slice's elements may be mutated while both are in use.
	keep := func(r *Report) bool {
		if r.Views < MinViews || len(r.Entities) < MinConcepts {
			return false
		}
		maxClicks := 0
		for _, e := range r.Entities {
			if e.Clicks > maxClicks {
				maxClicks = e.Clicks
			}
		}
		return maxClicks > MinTopClicks
	}
	firstDrop := -1
	for i := range reports {
		if !keep(&reports[i]) {
			firstDrop = i
			break
		}
	}
	if firstDrop == -1 {
		return reports
	}
	out := make([]Report, 0, len(reports)-1)
	out = append(out, reports[:firstDrop]...)
	for i := firstDrop + 1; i < len(reports); i++ {
		if keep(&reports[i]) {
			out = append(out, reports[i])
		}
	}
	return out
}

// WindowGroup is one evaluation group: the entities falling in one
// 2500-character window of a story, sharing the story's views. Windowing
// counters position bias ("we partitioned large documents into windows of
// size 2500 characters ... consecutive windows overlap (with 500
// characters)"). An entity in the overlap region appears in both windows.
type WindowGroup struct {
	// StoryID is the source story.
	StoryID int
	// WindowIndex is the window's index within the story.
	WindowIndex int
	// Text is the window content.
	Text string
	// Views is the story's view count.
	Views int
	// Entities are the stats of entities positioned inside this window.
	Entities []EntityStat
}

// Windows splits cleaned reports into window groups, dropping windows with
// fewer than MinConcepts entities.
//
// For the first window of a story (Start 0) whose in-window entities form a
// leading run of r.Entities, the group's Entities slice aliases that prefix
// of the report's slice instead of copying it — positions need no shifting
// there, and most short stories fit their first window entirely. The
// shared prefix is capped (three-index slice), so appends to either slice
// cannot clobber the other; the aliasing contract is that callers treat
// EntityStat elements as read-only, which every consumer (grouping,
// feature building, evaluation) already does.
func Windows(reports []Report, size, overlap int) []WindowGroup {
	var out []WindowGroup
	for _, r := range reports {
		wins := textproc.Partition(r.Story.Text, size, overlap)
		for _, win := range wins {
			g := WindowGroup{
				StoryID:     r.Story.ID,
				WindowIndex: win.Index,
				Text:        win.Text,
				Views:       r.Views,
			}
			if win.Start == 0 {
				k := 0
				for k < len(r.Entities) && r.Entities[k].Position < win.End {
					k++
				}
				shareable := true
				for _, e := range r.Entities[k:] {
					if e.Position < win.End {
						shareable = false
						break
					}
				}
				if shareable {
					if k >= MinConcepts {
						g.Entities = r.Entities[:k:k]
						out = append(out, g)
					}
					continue
				}
			}
			for _, e := range r.Entities {
				if e.Position >= win.Start && e.Position < win.End {
					out2 := e
					out2.Position = e.Position - win.Start
					g.Entities = append(g.Entities, out2)
				}
			}
			if len(g.Entities) >= MinConcepts {
				out = append(out, g)
			}
		}
	}
	return out
}

// Stats summarizes a report set the way §V-A.1 does: stories, detected
// concepts and total sampled clicks.
type Stats struct {
	Stories, Concepts, Clicks int
}

// Summarize computes Stats.
func Summarize(reports []Report) Stats {
	var s Stats
	s.Stories = len(reports)
	for _, r := range reports {
		s.Concepts += len(r.Entities)
		for _, e := range r.Entities {
			s.Clicks += e.Clicks
		}
	}
	return s
}
