// Package editorial simulates the paper's editorial evaluation (§V-B): a
// team of expert judges rates each highlighted entity on two independent
// dimensions — interestingness (Very / Somewhat / Definitely Not, "would the
// reader take time out to click?") and relevance (Relevant / Somewhat /
// Not, "could you summarize the text without it?") — each with a rare
// "Can't Tell" escape.
//
// Judges observe the world's latent ground truth through noise: a judge's
// perceived interestingness is the concept's latent Interest plus Gaussian
// error, and perceived relevance follows the mention's ground-truth
// relevance degraded by concept quality. This mirrors what human judges do
// — approximate the same quantity the click model samples from — so the
// Table VI comparison (learned ranking vs. concept-vector top-k) is
// meaningful.
package editorial

import (
	"math/rand"

	"contextrank/internal/world"
)

// Level is one rating choice.
type Level int

const (
	// Very is "Very Interesting or Useful" / "Relevant".
	Very Level = iota
	// Somewhat is the middle rating.
	Somewhat
	// Not is "Definitely Not Interesting" / "Not Relevant".
	Not
	// CantTell is the rare escape choice.
	CantTell
)

// String names the level.
func (l Level) String() string {
	switch l {
	case Very:
		return "very"
	case Somewhat:
		return "somewhat"
	case Not:
		return "not"
	default:
		return "cant-tell"
	}
}

// Judgement is one judge's rating of one entity.
type Judgement struct {
	Interest  Level
	Relevance Level
}

// Judge is a simulated expert with calibrated thresholds and rating noise.
type Judge struct {
	rng *rand.Rand
	// Noise is the σ of the judge's perception error. Default 0.12.
	Noise float64
	// CantTellRate is the probability of a Can't Tell on each dimension
	// ("those rare cases"). Default 0.001.
	CantTellRate float64
}

// NewJudge creates a judge with the given seed.
func NewJudge(seed int64) *Judge {
	return &Judge{rng: rand.New(rand.NewSource(seed)), Noise: 0.12, CantTellRate: 0.001}
}

// Rate judges one mention: the concept plus the mention's graded contextual
// relevance degree in [0,1].
func (j *Judge) Rate(c *world.Concept, degree float64) Judgement {
	var out Judgement

	// Interestingness: latent Interest perceived with noise; judged
	// "independent of their relevance to the meaning of the document".
	perceived := c.Interest + float64(j.Noise*j.rng.NormFloat64())
	switch {
	case j.rng.Float64() < j.CantTellRate:
		out.Interest = CantTell
	case perceived > 0.45:
		out.Interest = Very
	case perceived > 0.15:
		out.Interest = Somewhat
	default:
		out.Interest = Not
	}

	// Relevance: graded ground truth degraded by quality (low-quality
	// phrases cannot "summarize" anything). Mid degrees land in the
	// "Somewhat Relevant" band.
	relValue := float64((0.1 + float64(0.85*degree)) * (0.25 + float64(0.75*c.Quality)))
	relValue += float64(j.Noise * j.rng.NormFloat64())
	switch {
	case j.rng.Float64() < j.CantTellRate:
		out.Relevance = CantTell
	case relValue > 0.38:
		out.Relevance = Very
	case relValue > 0.16:
		out.Relevance = Somewhat
	default:
		out.Relevance = Not
	}
	return out
}

// Tally aggregates judgements.
type Tally struct {
	Interest  [4]int
	Relevance [4]int
	Total     int
}

// Add accumulates one judgement.
func (t *Tally) Add(j Judgement) {
	t.Interest[j.Interest]++
	t.Relevance[j.Relevance]++
	t.Total++
}

// Merge combines two tallies.
func (t *Tally) Merge(o Tally) {
	for i := range t.Interest {
		t.Interest[i] += o.Interest[i]
		t.Relevance[i] += o.Relevance[i]
	}
	t.Total += o.Total
}

// InterestPct returns the percentage of judgements at the level.
func (t *Tally) InterestPct(l Level) float64 {
	if t.Total == 0 {
		return 0
	}
	return 100 * float64(t.Interest[l]) / float64(t.Total)
}

// RelevancePct returns the percentage of judgements at the level.
func (t *Tally) RelevancePct(l Level) float64 {
	if t.Total == 0 {
		return 0
	}
	return 100 * float64(t.Relevance[l]) / float64(t.Total)
}

// BadPct returns the combined share of Not-Interesting and Not-Relevant
// judgements (the paper reports "the overall average percentage of
// non-interesting and non-relevant terms ... decreased by 45.1%").
func (t *Tally) BadPct() float64 {
	if t.Total == 0 {
		return 0
	}
	return 100 * float64(t.Interest[Not]+t.Relevance[Not]) / float64(2*t.Total)
}
