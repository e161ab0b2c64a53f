package senses

import (
	"math"
	"math/rand"
	"testing"

	"contextrank"
	"contextrank/internal/relevance"
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

func TestMineAmbiguousConcept(t *testing.T) {
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
	senses := Mine(f.eng, f.miner, amb.Name, 2, 0.1)
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
	senseStore := BuildStore(f.eng, f.miner, []string{amb.Name}, 2)
	globalStore := relevance.BuildStore(f.miner, []string{amb.Name}, relevance.Snippets)
	globalCtx := relevance.NewCtx(globalStore.Dict())

	rng := rand.New(rand.NewSource(9))
	// Compose documents in the secondary sense's topic.
	better := 0
	const trials = 8
	for i := 0; i < trials; i++ {
		doc, _ := w.ComposeDoc(world.ComposeOptions{Topic: amb.SecondaryTopic, Sentences: 12},
			[]world.Mention{{Concept: amb, Relevant: true, Repeat: 2}}, rng)
		stems := contextStems(doc)
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
		globalTotal = globalStore.Summation(amb.Name)
		if senseTotal > 0 && globalTotal > 0 &&
			senseScore/senseTotal >= globalScore/globalTotal {
			better++
		}
	}
	if better < trials/2 {
		t.Fatalf("sense-aware coverage better in only %d/%d secondary-sense contexts", better, trials)
	}
}

func TestStoreUnknown(t *testing.T) {
	s := &Store{senses: map[string][]Sense{}}
	if got := s.Score("missing", map[string]bool{"a": true}); got != 0 {
		t.Fatalf("unknown concept sense score = %v", got)
	}
	if got := s.Senses("missing"); got != nil {
		t.Fatalf("unknown senses = %v", got)
	}
}

// TestSenseExperimentPinned pins the §IV-C experiment at small scale, seed
// 42, to the values it returned while the per-cluster mining ran through
// the string miners and the global pack was scored through the map-based
// Store.Score: the line `cmd/experiments` printed before the experiment
// moved here, bit for bit.
func TestSenseExperimentPinned(t *testing.T) {
	global, sense, n := Experiment(contextrank.Build(contextrank.SmallConfig(42)).Internal(), 2)
	const wantGlobal, wantSense, wantN = 0.035324966085768454, 0.04169668573784284, 15
	if math.Float64bits(global) != math.Float64bits(wantGlobal) ||
		math.Float64bits(sense) != math.Float64bits(wantSense) || n != wantN {
		t.Fatalf("Experiment(2) = (%v, %v, %d), want (%v, %v, %d)",
			global, sense, n, wantGlobal, wantSense, wantN)
	}
}

type fixture struct {
	eng   *searchsim.Engine
	miner *relevance.Miner
}

// fixtureFromWorld builds a snippet miner over an existing world.
func fixtureFromWorld(t testing.TB, w *world.World) *fixture {
	t.Helper()
	eng := searchsim.BuildCorpus(w, searchsim.CorpusConfig{Seed: w.Config.Seed + 1, MaxDocsPerConcept: 25})
	return &fixture{eng: eng, miner: relevance.NewMiner(eng, nil, nil)}
}
