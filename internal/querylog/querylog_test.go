package querylog

import (
	"math"
	"sort"
	"strings"
	"testing"

	"contextrank/internal/world"
)

func testLog(t testing.TB) (*world.World, *Log) {
	t.Helper()
	w := world.New(world.Config{Seed: 11, VocabSize: 1500, NumTopics: 8, NumConcepts: 250})
	return w, Generate(w, Config{Seed: 12})
}

func TestFromCounts(t *testing.T) {
	l := FromCounts(map[string]int{
		"global warming":        100,
		"global warming causes": 40,
		"warming":               10,
		"zero freq":             0,
		"negative":              -3,
	})
	if l.NumDistinct() != 3 {
		t.Fatalf("NumDistinct = %d", l.NumDistinct())
	}
	if l.TotalFreq() != 150 {
		t.Fatalf("TotalFreq = %d", l.TotalFreq())
	}
	if got := l.FreqExact("global warming"); got != 100 {
		t.Fatalf("FreqExact = %d", got)
	}
	if got := l.FreqExact("missing"); got != 0 {
		t.Fatalf("FreqExact missing = %d", got)
	}
}

func TestFreqPhraseContained(t *testing.T) {
	l := FromCounts(map[string]int{
		"global warming":           100,
		"global warming causes":    40,
		"causes of global warming": 20,
		"warming global":           5,  // reversed, not a phrase match
		"global cooling warming":   7,  // not contiguous
		"warming":                  10, // single term, no phrase
	})
	if got := l.FreqPhraseContainedTerms(strings.Fields("global warming")); got != 160 {
		t.Fatalf("FreqPhraseContained = %d, want 160", got)
	}
	if got := l.FreqPhraseContainedTerms(strings.Fields("warming")); got != 182 {
		// All queries containing the single term "warming".
		t.Fatalf("FreqPhraseContained(warming) = %d, want 182", got)
	}
	if got := l.FreqPhraseContainedTerms(strings.Fields("")); got != 0 {
		t.Fatalf("empty phrase = %d", got)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	w := world.New(world.Config{Seed: 11, VocabSize: 800, NumTopics: 6, NumConcepts: 80})
	l1 := Generate(w, Config{Seed: 5})
	l2 := Generate(w, Config{Seed: 5})
	if l1.NumDistinct() != l2.NumDistinct() || l1.TotalFreq() != l2.TotalFreq() {
		t.Fatal("Generate not deterministic")
	}
}

// The central statistical property: exact-query frequency must correlate
// positively with latent interestingness, because the ranker learns
// interestingness through this feature.
func TestExactFreqTracksInterest(t *testing.T) {
	w, l := testLog(t)
	var xs, ys []float64
	for i := range w.Concepts {
		c := &w.Concepts[i]
		if c.LowQuality() {
			continue
		}
		xs = append(xs, c.Interest)
		ys = append(ys, math.Log1p(float64(l.FreqExact(c.Name))))
	}
	if r := pearson(xs, ys); r < 0.5 {
		t.Fatalf("corr(interest, log freq_exact) = %.3f, want >= 0.5", r)
	}
}

// Low-quality phrases must still receive substantial query traffic — that
// is the paper's stated reason they pollute the candidate set.
func TestLowQualityPhrasesGetQueries(t *testing.T) {
	w, l := testLog(t)
	for i := range w.Concepts {
		c := &w.Concepts[i]
		if c.LowQuality() {
			if l.FreqExact(c.Name) == 0 {
				t.Errorf("low-quality %q has no queries", c.Name)
			}
		}
	}
}

func TestPhraseContainedAtLeastExact(t *testing.T) {
	w, l := testLog(t)
	for i := range w.Concepts {
		c := &w.Concepts[i]
		if l.FreqPhraseContainedTerms(strings.Fields(c.Name)) < l.FreqExact(c.Name) {
			t.Fatalf("phrase-contained < exact for %q", c.Name)
		}
	}
}

func TestQueriesContainingSorted(t *testing.T) {
	_, l := testLog(t)
	for term, idxs := range map[string][]int{"": nil} {
		_ = term
		_ = idxs
	}
	// Spot-check a few terms: indexes must be ascending (append order over
	// sorted texts).
	checked := 0
	for _, q := range l.Queries[:min(50, len(l.Queries))] {
		for _, term := range strings.Fields(q.Text) {
			idxs := l.QueriesContaining(term)
			if !sort.SliceIsSorted(idxs, func(i, j int) bool { return idxs[i] < idxs[j] }) {
				t.Fatalf("QueriesContaining(%q) not sorted", term)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no terms checked")
	}
}

func pearson(xs, ys []float64) float64 {
	n := float64(len(xs))
	if n == 0 {
		return 0
	}
	var sx, sy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
	}
	mx, my := sx/n, sy/n
	var cov, vx, vy float64
	for i := range xs {
		cov += (xs[i] - mx) * (ys[i] - my)
		vx += (xs[i] - mx) * (xs[i] - mx)
		vy += (ys[i] - my) * (ys[i] - my)
	}
	if vx == 0 || vy == 0 {
		return 0
	}
	return cov / math.Sqrt(vx*vy)
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
