package match_test

import (
	"bytes"
	"testing"

	"contextrank/internal/corpus"
	"contextrank/internal/features"
	"contextrank/internal/framework"
	"contextrank/internal/match"
	"contextrank/internal/querylog"
	"contextrank/internal/ranksvm"
	"contextrank/internal/relevance"
	"contextrank/internal/searchsim"
	"contextrank/internal/world"
)

// checkOwnsTokens fails unless every token of v lies in v's own pages.
func checkOwnsTokens(t *testing.T, label string, v *match.Vocab) {
	t.Helper()
	if v.Len() == 0 {
		t.Fatalf("%s: empty vocabulary", label)
	}
	for id := uint32(0); int(id) < v.Len(); id++ {
		if tok := v.Token(id); !match.OwnsToken(v, tok) {
			t.Fatalf("%s: token %d (%q) lies outside the vocabulary's pages", label, id, tok)
		}
	}
}

// Every way into a vocabulary hands a term over as a slice of something
// larger: a document's text (Add, and the bulk build BuildCorpus runs over
// generator-tokenized documents), a query's text (the query log) or the
// file's buffer (the bundle loader's TID table). A vocabulary that kept the
// slice would keep that whole document, query or file alive for its own
// lifetime.
func TestVocabOwnsTokens(t *testing.T) {
	e := searchsim.NewEngine()
	for _, text := range []string{
		"The Iraq war continued as troops advanced on the capital.",
		"Cuba policy under the embargo remained unchanged.",
		"Café owners in Zürich reported a naïve spike in prices.",
	} {
		e.Add(text, 0)
	}
	e.Commit()
	checkOwnsTokens(t, "Add", e.Vocab())

	w := world.New(world.Config{Seed: 31, VocabSize: 1500, NumTopics: 8, NumConcepts: 150})
	checkOwnsTokens(t, "bulk build", searchsim.BuildCorpus(w, searchsim.CorpusConfig{Seed: 32, MaxDocsPerConcept: 5}).Vocab())
	checkOwnsTokens(t, "query log", querylog.Generate(w, querylog.Config{Seed: 33}).Vocab())

	names := []string{"iraq war", "economy"}
	dim := features.Dim(features.AllGroups()) + features.NumRelevance // the width LoadBundle accepts
	model, err := ranksvm.Train([]ranksvm.Instance{
		{Features: make([]float64, dim), Label: 0, Group: 0},
		{Features: append(make([]float64, dim-1), 1), Label: 1, Group: 0},
	}, ranksvm.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	b := framework.Bundle{
		Interest: framework.BuildInterestTable(names, func(string) features.Fields { return features.Fields{} }),
		Packs: framework.BuildKeywordPacks(relevance.NewStore(map[string]corpus.Vector{
			"iraq war": {{Term: "troop", Weight: 8}, {Term: "baghdad", Weight: 5}},
			"economy":  {{Term: "market", Weight: 6}, {Term: "naïv", Weight: 3}},
		})),
		Model: model,
	}
	var buf bytes.Buffer
	if err := b.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := framework.LoadBundle(&buf)
	if err != nil {
		t.Fatal(err)
	}
	checkOwnsTokens(t, "loaded TIDs", loaded.Packs.TIDs)
}
