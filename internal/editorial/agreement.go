package editorial

import "contextrank/internal/world"

// The paper's study uses "a team of expert judges"; any multi-judge study
// needs an agreement check before pooling ratings. This file provides a
// judge panel and Cohen's kappa over their judgements.

// Panel is a set of independent judges.
type Panel struct {
	Judges []*Judge
}

// NewPanel creates n judges with derived seeds.
func NewPanel(n int, seed int64) *Panel {
	p := &Panel{}
	for i := 0; i < n; i++ {
		p.Judges = append(p.Judges, NewJudge(seed+int64(i)*977))
	}
	return p
}

// RateAll has every judge rate the mention, returning one judgement per
// judge.
func (p *Panel) RateAll(c *world.Concept, degree float64) []Judgement {
	out := make([]Judgement, len(p.Judges))
	for i, j := range p.Judges {
		out[i] = j.Rate(c, degree)
	}
	return out
}

// MajorityRate pools the panel with per-dimension majority vote (ties keep
// the more positive level, mirroring editorial adjudication).
func (p *Panel) MajorityRate(c *world.Concept, degree float64) Judgement {
	ratings := p.RateAll(c, degree)
	return Judgement{
		Interest:  majority(ratings, func(j Judgement) Level { return j.Interest }),
		Relevance: majority(ratings, func(j Judgement) Level { return j.Relevance }),
	}
}

func majority(ratings []Judgement, dim func(Judgement) Level) Level {
	var counts [4]int
	for _, r := range ratings {
		counts[dim(r)]++
	}
	best := Very
	for l := Very; l <= CantTell; l++ {
		if counts[l] > counts[best] {
			best = l
		}
	}
	return best
}

// Kappa computes Cohen's kappa between two raters' level sequences
// (parallel slices). Returns 1 for perfect agreement, 0 for chance-level,
// and can be negative for systematic disagreement. Panics-free: mismatched
// or empty input returns 0.
func Kappa(a, b []Level) float64 {
	if len(a) != len(b) || len(a) == 0 {
		return 0
	}
	n := float64(len(a))
	var agree float64
	var ca, cb [4]float64
	for i := range a {
		if a[i] == b[i] {
			agree++
		}
		ca[a[i]]++
		cb[b[i]]++
	}
	po := agree / n
	pe := 0.0
	for l := 0; l < 4; l++ {
		pe += float64((ca[l] / n) * (cb[l] / n))
	}
	if pe >= 1 {
		return 1
	}
	return (po - pe) / (1 - pe)
}

// PanelKappa measures the mean pairwise kappa of the panel's interest and
// relevance ratings over a set of (concept, degree) items.
func PanelKappa(p *Panel, concepts []*world.Concept, degrees []float64) (interestKappa, relevanceKappa float64) {
	if len(p.Judges) < 2 || len(concepts) == 0 || len(concepts) != len(degrees) {
		return 0, 0
	}
	perJudgeInt := make([][]Level, len(p.Judges))
	perJudgeRel := make([][]Level, len(p.Judges))
	for i := range concepts {
		for ji, j := range p.Judges {
			r := j.Rate(concepts[i], degrees[i])
			perJudgeInt[ji] = append(perJudgeInt[ji], r.Interest)
			perJudgeRel[ji] = append(perJudgeRel[ji], r.Relevance)
		}
	}
	pairs := 0
	for a := 0; a < len(p.Judges); a++ {
		for b := a + 1; b < len(p.Judges); b++ {
			interestKappa += Kappa(perJudgeInt[a], perJudgeInt[b])
			relevanceKappa += Kappa(perJudgeRel[a], perJudgeRel[b])
			pairs++
		}
	}
	return interestKappa / float64(pairs), relevanceKappa / float64(pairs)
}
