package features

import (
	"testing"

	"contextrank/internal/querylog"
	"contextrank/internal/searchsim"
)

func extendedFixture() *Extractor {
	log := querylog.FromCounts(map[string]int{
		"global warming":        300,
		"global warming facts":  60, // cosine("global warming", ...) = 2/sqrt(2*3) ≈ 0.82
		"warming global trend":  40, // same terms, different order: still similar as bags
		"climate change":        200,
		"unrelated things here": 50,
	})
	eng := searchsim.NewEngine()
	eng.Add("global warming threatens climate patterns worldwide", 0)
	eng.Add("warming of the global economy continued", 0)
	eng.Add("climate change and warming trends", 0)
	eng.Add("sports scores from the weekend", 1)
	eng.Commit()
	return NewExtractor(log, nil, eng, nil, nil)
}

func TestExtendedCosineSimilarQueries(t *testing.T) {
	ext := extendedFixture()
	x := ext.Extended("global warming")
	if x.FreqCosineSimilar <= 0 {
		t.Fatalf("similar queries exist, feature = %v", x.FreqCosineSimilar)
	}
	// A concept with no similar queries scores 0.
	if y := ext.Extended("zzz qqq"); y.FreqCosineSimilar != 0 {
		t.Fatalf("no similar queries expected, got %v", y.FreqCosineSimilar)
	}
}

func TestExtendedExcludesExactQuery(t *testing.T) {
	// Only the exact query exists: similarity feature must be 0 since the
	// exact match is excluded.
	log := querylog.FromCounts(map[string]int{"solo concept": 100})
	ext := NewExtractor(log, nil, nil, nil, nil)
	if x := ext.Extended("solo concept"); x.FreqCosineSimilar != 0 {
		t.Fatalf("exact query must be excluded, got %v", x.FreqCosineSimilar)
	}
}

func TestExtendedAnyOrderAtLeastPhrase(t *testing.T) {
	ext := extendedFixture()
	x := ext.Extended("global warming")
	f := ext.Fields("global warming")
	if x.SearchEngineAnyOrder < f.SearchEnginePhrase {
		t.Fatalf("any-order count (%v) must be >= phrase count (%v)",
			x.SearchEngineAnyOrder, f.SearchEnginePhrase)
	}
}

func TestExtendedMeanTermIDF(t *testing.T) {
	ext := extendedFixture()
	// "warming" appears in 3/4 docs, "weekend" in 1/4: rarer term = higher idf.
	common := ext.Extended("warming")
	rare := ext.Extended("weekend")
	if rare.MeanTermIDF <= common.MeanTermIDF {
		t.Fatalf("rare term idf (%v) must exceed common (%v)", rare.MeanTermIDF, common.MeanTermIDF)
	}
}

func TestExtendedNilResources(t *testing.T) {
	ext := NewExtractor(nil, nil, nil, nil, nil)
	x := ext.Extended("anything here")
	if x.FreqCosineSimilar != 0 || x.SearchEngineAnyOrder != 0 || x.MeanTermIDF != 0 {
		t.Fatalf("nil resources should zero extended fields: %+v", x)
	}
	if y := ext.Extended(""); y != (ExtendedFields{}) {
		t.Fatalf("empty concept: %+v", y)
	}
}

func TestExtendedExpand(t *testing.T) {
	x := ExtendedFields{FreqCosineSimilar: 1, SearchEngineAnyOrder: 2, MeanTermIDF: 3}
	v := x.Expand()
	if len(v) != NumExtended {
		t.Fatalf("Expand len = %d", len(v))
	}
	if v[0] != 1 || v[1] != 2 || v[2] != 3 {
		t.Fatalf("Expand = %v", v)
	}
}

func TestBagCosine(t *testing.T) {
	concept := map[string]bool{"global": true, "warming": true}
	cases := []struct {
		query []string
		min   float64
		max   float64
	}{
		{[]string{"global", "warming"}, 0.99, 1.01},
		{[]string{"warming", "global"}, 0.99, 1.01}, // order-free
		{[]string{"global", "warming", "facts"}, 0.8, 0.83},
		{[]string{"nothing", "shared"}, 0, 0},
		{nil, 0, 0},
	}
	for _, c := range cases {
		got := bagCosine(concept, c.query)
		if got < c.min || got > c.max {
			t.Errorf("bagCosine(%v) = %v, want [%v,%v]", c.query, got, c.min, c.max)
		}
	}
	if got := bagCosine(nil, []string{"x"}); got != 0 {
		t.Errorf("empty concept cosine = %v", got)
	}
}
