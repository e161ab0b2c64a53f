package core

import (
	"testing"

	"contextrank/internal/newsgen"
	"contextrank/internal/ranksvm"
	"contextrank/internal/relevance"
	"contextrank/internal/searchsim"
	"contextrank/internal/world"
)

// The whole-system reproducibility guarantee: two builds from the same
// configuration must be indistinguishable — same click data, same mined
// keywords, same trained model, same experiment results.
func TestSystemDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	cfg := Config{
		Seed:   777,
		World:  world.Config{VocabSize: 1200, NumTopics: 6, NumConcepts: 120},
		Corpus: searchsim.CorpusConfig{MaxDocsPerConcept: 12},
		News:   newsgen.Config{NumStories: 80},
	}
	a, b := Build(cfg), Build(cfg)

	if sa, sb := a.DataStats(), b.DataStats(); sa != sb {
		t.Fatalf("data stats differ: %+v vs %+v", sa, sb)
	}
	// Click labels identical.
	for i := range a.Groups {
		ga, gb := a.Groups[i], b.Groups[i]
		if ga.Text != gb.Text || len(ga.Entities) != len(gb.Entities) {
			t.Fatalf("group %d differs", i)
		}
		for j := range ga.Entities {
			if ga.Entities[j].Clicks != gb.Entities[j].Clicks {
				t.Fatalf("group %d entity %d clicks differ", i, j)
			}
		}
	}
	// Mined keywords identical.
	sa := a.RelevanceStore(relevance.Snippets)
	sb := b.RelevanceStore(relevance.Snippets)
	for _, name := range sa.Concepts()[:30] {
		ta, tb := sa.Keywords(name), sb.Keywords(name)
		if len(ta) != len(tb) {
			t.Fatalf("%q keyword counts differ", name)
		}
		for j := range ta {
			if ta[j].Weight != tb[j].Weight || sa.Dict().Token(ta[j].Stem) != sb.Dict().Token(tb[j].Stem) { //kwlint:ignore floatcompare — determinism test asserts bit-exact weights for a fixed seed
				t.Fatalf("%q keyword %d differs", name, j)
			}
		}
	}
	// Trained models identical (same weights).
	ma := &LearnedMethod{UseRelevance: true, Resource: relevance.Snippets, Options: ranksvm.Options{Seed: 1}}
	mb := &LearnedMethod{UseRelevance: true, Resource: relevance.Snippets, Options: ranksvm.Options{Seed: 1}}
	if err := ma.Fit(a.Dataset([]relevance.Resource{relevance.Snippets})); err != nil {
		t.Fatal(err)
	}
	if err := mb.Fit(b.Dataset([]relevance.Resource{relevance.Snippets})); err != nil {
		t.Fatal(err)
	}
	wa, wb := ma.Model().Weights, mb.Model().Weights
	if len(wa) != len(wb) {
		t.Fatalf("model dims differ: %d vs %d", len(wa), len(wb))
	}
	for d := range wa {
		if wa[d] != wb[d] { //kwlint:ignore floatcompare — determinism test asserts bit-exact weights across runs
			t.Fatalf("model weight %d differs: %v vs %v", d, wa[d], wb[d])
		}
	}
}
