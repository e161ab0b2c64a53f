package contextrank

import (
	"bytes"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"contextrank/internal/corpus"
	"contextrank/internal/detect"
	"contextrank/internal/features"
	"contextrank/internal/framework"
	"contextrank/internal/relevance"
	"contextrank/internal/world"
)

var (
	sharedSystem *System
	sharedRanker *Ranker
)

func testSystem(t testing.TB) (*System, *Ranker) {
	t.Helper()
	if sharedSystem == nil {
		sharedSystem = Build(SmallConfig(77))
		r, err := sharedSystem.TrainRanker()
		if err != nil {
			t.Fatal(err)
		}
		sharedRanker = r
	}
	return sharedSystem, sharedRanker
}

func composeTestDoc(s *System, seed int64) string {
	w := s.Internal().World
	rng := rand.New(rand.NewSource(seed))
	var hot, cold *world.Concept
	for i := range w.Concepts {
		c := &w.Concepts[i]
		if c.Topic < 0 {
			continue
		}
		if hot == nil || c.Interest > hot.Interest {
			if cold == nil {
				cold = hot
			}
			hot = c
		}
		if cold == nil || (c.Interest < cold.Interest && c.ID != hot.ID) {
			cold = c
		}
	}
	doc, _ := w.ComposeDoc(world.ComposeOptions{Topic: hot.Topic, Sentences: 14},
		[]world.Mention{
			{Concept: hot, Relevant: hot.Topic >= 0, Repeat: 2},
			{Concept: cold, Relevant: false},
		}, rng)
	return doc + " Contact press@example.com for details."
}

func TestBuildAndStats(t *testing.T) {
	s, _ := testSystem(t)
	if len(s.Concepts()) == 0 {
		t.Fatal("no concepts")
	}
	stats := s.DataStats()
	if stats.CleanStories == 0 || stats.Clicks == 0 || stats.Windows == 0 {
		t.Fatalf("empty click corpus: %+v", stats)
	}
}

func TestAnnotateRanksAndIncludesPatterns(t *testing.T) {
	s, r := testSystem(t)
	doc := composeTestDoc(s, 5)
	anns := r.Annotate(doc, 3)
	if len(anns) == 0 {
		t.Fatal("no annotations")
	}
	patterns := 0
	distinct := make(map[string]bool)
	for _, a := range anns {
		if a.Detection.Kind == detect.KindPattern {
			patterns++
		} else {
			distinct[a.Detection.Norm] = true
		}
	}
	if patterns == 0 {
		t.Fatal("email pattern not annotated")
	}
	if len(distinct) == 0 {
		t.Fatal("no ranked concepts")
	}
	if len(distinct) > 3 {
		t.Fatalf("topN not applied: %d distinct concepts", len(distinct))
	}
}

func TestKeywords(t *testing.T) {
	s, r := testSystem(t)
	doc := composeTestDoc(s, 6)
	kws := r.Keywords(doc, 3)
	if len(kws) == 0 {
		t.Fatal("no keywords")
	}
	for _, k := range kws {
		if strings.Contains(k, "@") {
			t.Fatalf("pattern leaked into keywords: %q", k)
		}
	}
}

func TestMemoryFootprint(t *testing.T) {
	s, r := testSystem(t)
	interest, keywords := r.MemoryFootprint()
	n := len(s.Concepts())
	if interest != n*18 {
		t.Fatalf("interest bytes = %d, want %d (18/concept)", interest, n*18)
	}
	if keywords == 0 || keywords > n*400 {
		t.Fatalf("keyword bytes = %d out of range (max %d)", keywords, n*400)
	}
}

func TestThroughputMeasured(t *testing.T) {
	s, r := testSystem(t)
	r.Annotate(composeTestDoc(s, 8), 0)
	stem, rank := r.Runtime().Throughput()
	if stem <= 0 || rank <= 0 {
		t.Fatalf("throughput = %v, %v", stem, rank)
	}
}

func TestSaveLoadBundle(t *testing.T) {
	s, r := testSystem(t)
	var buf bytes.Buffer
	if err := r.SaveBundle(&buf); err != nil {
		t.Fatal(err)
	}
	r2, err := s.LoadBundle(&buf)
	if err != nil {
		t.Fatal(err)
	}
	doc := composeTestDoc(s, 21)
	a1, a2 := r.Annotate(doc, 4), r2.Annotate(doc, 4)
	if len(a1) != len(a2) {
		t.Fatalf("bundle-restored ranker annotation count %d != %d", len(a2), len(a1))
	}
	for i := range a1 {
		if a1[i].Detection.Norm != a2[i].Detection.Norm || a1[i].Score != a2[i].Score {
			t.Fatal("bundle-restored ranker disagrees")
		}
	}
}

// A bundle's tables are keyed by concept name, so tables built for another
// world would load and then annotate that world's inventory. LoadBundle
// rejects a bundle with a concept too many, and one whose concepts differ
// while the count matches. Both tables of the foreign bundle name its
// inventory, so it saves and loads as a file and fails on the world.
func TestLoadBundleRejectsOtherWorld(t *testing.T) {
	s, r := testSystem(t)
	rt := r.Runtime()
	names := make([]string, len(s.Concepts()))
	for i, c := range s.Concepts() {
		names[i] = c.Name
	}
	fields := func(name string) features.Fields {
		f, _ := rt.Interest.Fields(name)
		return f
	}
	for label, inventory := range map[string][]string{
		"extra concept":   append(slices.Clone(names), "qqforeign concept"),
		"foreign concept": append(slices.Clone(names[1:]), "qqforeign concept"),
	} {
		keywords := make(map[string]corpus.Vector, len(inventory))
		for _, name := range inventory {
			keywords[name] = rt.Packs.Keywords(name)
		}
		packs := framework.BuildKeywordPacks(relevance.NewStore(keywords))
		b := &framework.Bundle{Interest: framework.BuildInterestTable(inventory, fields), Packs: packs, Model: rt.Model}
		var buf bytes.Buffer
		if err := b.Save(&buf); err != nil {
			t.Fatal(err)
		}
		if _, err := framework.LoadBundle(bytes.NewReader(buf.Bytes())); err != nil {
			t.Fatalf("%s: the foreign bundle is not a well-formed file: %v", label, err)
		}
		if _, err := s.LoadBundle(&buf); err == nil || !strings.Contains(err.Error(), "this world") {
			t.Fatalf("%s: a bundle built for another world loaded: %v", label, err)
		}
	}
}

// The built engine's size accounting is what bench reports as
// index_frozen_ratio (FrozenBytes / RawBytes): pinned per seed, so a change to
// the corpus generator, the bulk index build or the posting coder cannot move
// it unseen.
func TestBuildCorpusStatsPinned(t *testing.T) {
	type sizes struct {
		Docs, Terms, Postings, Positions, RawBytes, FrozenBytes, BitmapTerms, Segments int
		Epoch                                                                          uint64
	}
	for seed, want := range map[int64]sizes{
		42: {4389, 13217, 361513, 485913, 4835756, 1104539, 10, 1, 1},
		7:  {4380, 13255, 359680, 483936, 4813184, 1100882, 10, 1, 1},
	} {
		st := Build(SmallConfig(seed)).Internal().Engine.Stats()
		got := sizes{st.Docs, st.Terms, st.Postings, st.Positions, st.RawBytes, st.FrozenBytes, st.BitmapTerms, st.Segments, st.Epoch}
		if got != want {
			t.Errorf("seed %d: engine stats %+v, want %+v", seed, got, want)
		}
	}
}
