package contextrank

import (
	"fmt"
	"math"
	"testing"

	"contextrank/internal/core"
	"contextrank/internal/ranksvm"
	"contextrank/internal/relevance"
)

// TestServedRanksAsLearned: the served runtime applies the model the paper
// tables evaluate. For every gold mention of a click window that the
// runtime detects in that window's text — same concept, same first byte —
// the served score is LearnedMethod.Score's up to the quantization of the
// interestingness table and the keyword packs, and two such mentions the
// two rankers order differently are a near-tie of the learned scores.
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
			rt := s.NewRuntime(learned.Model())
			gold, matched := 0, 0
			for gi := range groups {
				g := &groups[gi]
				served := make(map[mention]float64)
				for _, a := range rt.Annotate(g.Text, 0) {
					served[mention{a.Detection.Norm, a.Detection.Start}] = a.Score
				}
				var got, want []float64
				for i, w := range learned.Score(g) {
					ex := &g.Examples[i]
					score, ok := served[mention{ex.Concept.Name, ex.Position}]
					if !ok {
						continue
					}
					if d := math.Abs(score - w); d > 0.01 {
						t.Errorf("window %d, %q at %d: served %.4f, learned %.4f", g.ID, ex.Concept.Name, ex.Position, score, w)
					}
					got, want = append(got, score), append(want, w)
				}
				for i := range got {
					for j := i + 1; j < len(got); j++ {
						if (got[i]-got[j])*(want[i]-want[j]) < 0 && math.Abs(want[i]-want[j]) > 0.02 {
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
			t.Logf("%d of %d gold mentions detected and compared", matched, gold)
		})
	}
}
