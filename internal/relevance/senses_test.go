package relevance

import (
	"math/rand"
	"reflect"
	"testing"

	"contextrank/internal/searchsim"
	"contextrank/internal/world"
)

func TestSphericalKMeansSeparatesObviousClusters(t *testing.T) {
	// Two obvious groups: {a,b} vectors vs {x,y} vectors.
	vecs := []map[string]float64{
		{"a": 1, "b": 0.5}, {"a": 0.9, "b": 0.6}, {"a": 1.1, "b": 0.4},
		{"x": 1, "y": 0.5}, {"x": 0.8, "y": 0.7}, {"x": 1.2, "y": 0.3},
	}
	for _, v := range vecs {
		normalize(v)
	}
	assign := sphericalKMeans(vecs, 2)
	if assign[0] != assign[1] || assign[1] != assign[2] {
		t.Fatalf("first group split: %v", assign)
	}
	if assign[3] != assign[4] || assign[4] != assign[5] {
		t.Fatalf("second group split: %v", assign)
	}
	if assign[0] == assign[3] {
		t.Fatalf("groups merged: %v", assign)
	}
}

func TestSphericalKMeansDegenerate(t *testing.T) {
	if got := sphericalKMeans(nil, 2); len(got) != 0 {
		t.Fatal("empty input")
	}
	one := []map[string]float64{{"a": 1}}
	if got := sphericalKMeans(one, 3); len(got) != 1 || got[0] != 0 {
		t.Fatalf("single vector: %v", got)
	}
}

func TestMineSensesAmbiguousConcept(t *testing.T) {
	// A world with a high ambiguity rate so we reliably find a two-sense
	// concept.
	w := world.New(world.Config{Seed: 171, VocabSize: 2000, NumTopics: 8, NumConcepts: 200, AmbiguousFraction: 0.3})
	f := fixtureFromWorld(t, w)

	var amb *world.Concept
	for i := range w.Concepts {
		c := &w.Concepts[i]
		if c.Ambiguous() && c.Specificity > 0.5 && c.Quality > 0.5 {
			amb = c
			break
		}
	}
	if amb == nil {
		t.Skip("no ambiguous concept")
	}
	senses := f.miner.MineSenses(amb.Name, 2, 0.1)
	if len(senses) == 0 {
		t.Fatal("no senses mined")
	}
	totalShare := 0.0
	for _, s := range senses {
		if len(s.Keywords) == 0 {
			t.Fatal("sense with no keywords")
		}
		totalShare += s.Share
	}
	if totalShare < 0.99 || totalShare > 1.01 {
		t.Fatalf("shares must sum to 1, got %v", totalShare)
	}
}

// The §IV-C boost: for an ambiguous concept, max-over-senses scoring must
// beat the diluted global pack in a secondary-sense context.
func TestSenseScoreBoostsSecondarySense(t *testing.T) {
	w := world.New(world.Config{Seed: 173, VocabSize: 2000, NumTopics: 8, NumConcepts: 200, AmbiguousFraction: 0.35})
	f := fixtureFromWorld(t, w)

	var amb *world.Concept
	for i := range w.Concepts {
		c := &w.Concepts[i]
		if c.Ambiguous() && c.Specificity > 0.6 && c.Quality > 0.6 {
			amb = c
			break
		}
	}
	if amb == nil {
		t.Skip("no ambiguous concept")
	}
	senseStore := BuildSenseStore(f.miner, []string{amb.Name}, 2)
	globalStore := BuildStore(f.miner, []string{amb.Name}, Snippets)
	globalCtx := globalStore.NewCtx()

	rng := rand.New(rand.NewSource(9))
	// Compose documents in the secondary sense's topic.
	better := 0
	const trials = 8
	for i := 0; i < trials; i++ {
		doc, _ := w.ComposeDoc(world.ComposeOptions{Topic: amb.SecondaryTopic, Sentences: 12},
			[]world.Mention{{Concept: amb, Relevant: true, Repeat: 2}}, rng)
		stems := ContextStems(doc)
		senseScore := senseStore.Score(amb.Name, stems)
		globalCtx.SetText(doc)
		globalScore := globalStore.ScoreCtx(amb.Name, globalCtx)
		// Normalize by each pack's own total to compare coverage fairly.
		senseTotal, globalTotal := 0.0, 0.0
		for _, s := range senseStore.Senses(amb.Name) {
			if t := s.Keywords.Sum(); t > senseTotal {
				senseTotal = t
			}
		}
		globalTotal = globalStore.RelevantTerms(amb.Name).Sum()
		if senseTotal > 0 && globalTotal > 0 &&
			senseScore/senseTotal >= globalScore/globalTotal {
			better++
		}
	}
	if better < trials/2 {
		t.Fatalf("sense-aware coverage better in only %d/%d secondary-sense contexts", better, trials)
	}
}

// TestDifferentialMineClusters pins MineSenses' interned per-cluster mining
// to the string reference it replaced, bit for bit, given the same cluster
// assignment. The assignment is computed once and handed to both sides:
// sphericalKMeans sums floats in map order, so two independent clusterings
// of one snippet list need not agree to the last bit.
func TestDifferentialMineClusters(t *testing.T) {
	w := world.New(world.Config{Seed: 171, VocabSize: 2000, NumTopics: 8, NumConcepts: 200, AmbiguousFraction: 0.3})
	f := fixtureFromWorld(t, w)
	checked, split := 0, 0
	for i := range w.Concepts {
		c := &w.Concepts[i]
		if !c.Ambiguous() && i%17 != 0 {
			continue
		}
		snippets := f.eng.Snippets(c.Name, SnippetDepth)
		if len(snippets) == 0 {
			continue
		}
		for _, k := range []int{1, 2, 3} {
			assign, k := f.miner.clusterSnippets(snippets, k, 0.1)
			want := f.miner.mineClustersRef(c.Name, snippets, assign)
			got := f.miner.mineClusters(c.Name, assign, k)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("mineClusters(%q, k=%d) diverged from the string reference\n got %v\nwant %v", c.Name, k, got, want)
			}
			if len(got) > 1 {
				split++
			}
		}
		checked++
	}
	if checked == 0 || split == 0 {
		t.Fatalf("fixture too thin: %d concepts checked, %d multi-sense results", checked, split)
	}
}

func TestSenseStoreUnknown(t *testing.T) {
	s := &SenseStore{senses: map[string][]Sense{}}
	if got := s.Score("missing", map[string]bool{"a": true}); got != 0 {
		t.Fatalf("unknown concept sense score = %v", got)
	}
	if got := s.Senses("missing"); got != nil {
		t.Fatalf("unknown senses = %v", got)
	}
}

// fixtureFromWorld builds a miner over an existing world.
func fixtureFromWorld(t testing.TB, w *world.World) *fixture {
	t.Helper()
	eng := searchsim.BuildCorpus(w, searchsim.CorpusConfig{Seed: w.Config.Seed + 1, MaxDocsPerConcept: 25})
	return &fixture{w: w, eng: eng, miner: NewMiner(eng, nil, nil)}
}
