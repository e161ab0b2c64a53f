package contextrank

import (
	"fmt"
	"math"
	"testing"

	"contextrank/internal/core"
	"contextrank/internal/corpus"
	"contextrank/internal/features"
	"contextrank/internal/framework"
	"contextrank/internal/ranksvm"
	"contextrank/internal/relevance"
)

// TestServedRanksAsLearned: the served runtime applies the model the paper
// tables evaluate. For every gold mention of a click window that the
// runtime detects in that window's text — same concept, same first byte —
// the served score is LearnedMethod.Score's up to a bound derived from the
// quantization of the interestingness table and the keyword packs
// (tolerance), and two such mentions the two rankers order differently are
// learned within the sum of their bounds. Every bound is at most 0.01.
func TestServedRanksAsLearned(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and trains two systems; skipped in -short")
	}
	type mention struct {
		concept string
		start   int
	}
	for _, seed := range []int64{42, 7} {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			s := Build(SmallConfig(seed)).Internal()
			groups := s.Dataset([]relevance.Resource{relevance.Snippets})
			learned := &core.LearnedMethod{UseRelevance: true, Resource: relevance.Snippets, Options: ranksvm.Options{Seed: seed}}
			if err := learned.Fit(groups); err != nil {
				t.Fatal(err)
			}
			rt := s.RuntimeTables().Runtime(learned.Model())
			tol := newTolerance(t, s, rt)
			gold, matched := 0, 0
			maxGap, maxBound := 0.0, 0.0
			for gi := range groups {
				g := &groups[gi]
				served := make(map[mention]float64)
				for _, a := range rt.Annotate(g.Text, 0) {
					served[mention{a.Detection.Norm, a.Detection.Start}] = a.Score
				}
				var got, want, bound []float64
				for i, w := range learned.Score(g) {
					ex := &g.Examples[i]
					score, ok := served[mention{ex.Concept.Name, ex.Position}]
					if !ok {
						continue
					}
					b := tol.bound(g.Text, ex)
					if b > 0.01 {
						t.Errorf("window %d, %q at %d: derived bound %.4f is past 0.01", g.ID, ex.Concept.Name, ex.Position, b)
					}
					if d := math.Abs(score - w); d > b {
						t.Errorf("window %d, %q at %d: served %.6f, learned %.6f, bound %.6f", g.ID, ex.Concept.Name, ex.Position, score, w, b)
					}
					maxGap, maxBound = math.Max(maxGap, math.Abs(score-w)), math.Max(maxBound, b)
					got, want, bound = append(got, score), append(want, w), append(bound, b)
				}
				for i := range got {
					for j := i + 1; j < len(got); j++ {
						if (got[i]-got[j])*(want[i]-want[j]) < 0 && math.Abs(want[i]-want[j]) > bound[i]+bound[j] {
							t.Errorf("window %d: served order of learned scores %.4f and %.4f is reversed", g.ID, want[i], want[j])
						}
					}
				}
				gold += len(g.Examples)
				matched += len(got)
			}
			if 2*matched < gold {
				t.Fatalf("the runtime detected %d of %d gold mentions; the comparison covers too few", matched, gold)
			}
			t.Logf("%d of %d gold mentions detected and compared; max |served - learned| %.5f, max bound %.5f", matched, gold, maxGap, maxBound)
		})
	}
}

// tolerance derives how far a mention's served score may sit from its
// learned one. Each feature's worst quantization error in the served
// tables is carried through the linear model as |w_d|/σ_d, and
// LearnedMethod.Score's 1e-9·log1p tie-break is added.
type tolerance struct {
	weight []float64 // |w_d|/σ_d per feature
	fields float64   // the interest features' share: Σ weight·Calibration.Max/65,535
	step   float64   // the packs' score quantum, maxScore/MaxQScore
	store  *relevance.Store
	packs  *framework.KeywordPacks
	hits   *relevance.Store // the store's keywords at weight 1: ScoreCtx counts a window's hits
	ctx    *relevance.Ctx
}

// newTolerance reads the quantization of rt's tables as s.RuntimeTables() sets
// it: the interest table calibrated over every concept's fields, and the
// packs' scores scaled against the store's largest keyword score.
func newTolerance(t *testing.T, s *core.System, rt *framework.Runtime) *tolerance {
	m := rt.Model
	if m.Kernel != ranksvm.Linear {
		t.Fatalf("the bound is derived for a linear model, not kernel %d", m.Kernel)
	}
	store := s.RelevanceStore(relevance.Snippets)
	tol := &tolerance{store: store, packs: rt.Packs}
	for d, w := range m.Weights {
		tol.weight = append(tol.weight, math.Abs(w)/m.Scale[d])
	}
	// A stored field reads back at most one 16-bit step of its calibration
	// maximum low (Table I order); HighLevelType is stored verbatim, and -1
	// leaves its one-hot features at zero error.
	var all []features.Fields
	for _, c := range s.World.Concepts {
		all = append(all, s.Fields(c.Name))
	}
	cal := framework.Calibrate(all)
	q := func(i int) float64 { return cal.Max[i] / math.MaxUint16 }
	steps := features.Fields{
		FreqExact: q(0), FreqPhraseContained: q(1), UnitScore: q(2), SearchEnginePhrase: q(3),
		ConceptSize: q(4), NumberOfChars: q(5), Subconcepts: q(6), HighLevelType: -1, WikiWordCount: q(8),
	}.Expand(features.AllGroups())
	for d, e := range steps {
		tol.fields += tol.weight[d] * e
	}
	ones := make(map[string]corpus.Vector)
	for _, c := range store.Concepts() {
		var v corpus.Vector
		for _, k := range store.Keywords(c) {
			tol.step = math.Max(tol.step, k.Weight/framework.MaxQScore)
			v = append(v, corpus.Entry{Term: store.Dict().Token(k.Stem), Weight: 1})
		}
		ones[c] = v
	}
	tol.hits = relevance.NewStore(ones)
	tol.ctx = relevance.NewCtx(tol.hits.Dict())
	return tol
}

// bound is ex's tolerance in text. Each keyword is packed less than one
// step below its mined score. Of the k keywords the mention's window holds,
// the served relevance therefore loses some e in [0, min(k·step, h)], and
// its log1p at most log1p(h) - log1p(h - min(k·step, h)). The coverage
// ratio is h/t mined and (h - e)/packed served, where the pack loses
// E = t - packed ≥ e of its mass in all; the difference, (ρE - e)/packed,
// lies between -(min(k·step, E) - ρE)/packed and ρE/packed.
func (tol *tolerance) bound(text string, ex *core.Example) float64 {
	name := ex.Concept.Name
	tol.ctx.SetAround(text, ex.Position)
	k := tol.hits.ScoreCtx(name, tol.ctx)
	h, rho := ex.RelScore[relevance.Snippets], ex.RelNorm[relevance.Snippets]
	dLog := math.Log1p(h) - math.Log1p(h-math.Min(k*tol.step, h))
	var dRho float64
	if t := tol.store.Summation(name); t > 0 {
		packed := tol.packs.Keywords(name).Sum()
		dRho = rho // an empty pack serves coverage 0
		if packed > 0 {
			lost := t - packed
			dRho = math.Max(rho*lost, math.Min(k*tol.step, lost)-rho*lost) / packed
		}
	}
	n := len(tol.weight)
	return tol.fields + tol.weight[n-2]*dLog + tol.weight[n-1]*dRho + 1e-9*math.Log1p(h)
}
