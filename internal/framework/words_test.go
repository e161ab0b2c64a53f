package framework_test

import (
	"math/rand"
	"strings"
	"testing"

	"contextrank/internal/core"
	"contextrank/internal/detect"
	"contextrank/internal/framework"
	"contextrank/internal/match"
	"contextrank/internal/newsgen"
	"contextrank/internal/ranksvm"
	"contextrank/internal/relevance"
	"contextrank/internal/stem"
	"contextrank/internal/textproc"
	"contextrank/internal/world"
)

// TestWordTableMatchesDefinition: whether a word is in the word table or
// takes the miss path, the runtime resolves it to what the definition says
// — no TID for a stop word, the Global TID of its Porter stem otherwise,
// and its ids in the dictionary and unit vocabularies — computed here from
// IsStopword, Stem and the three vocabularies' ID. The runtime is the
// served one at paper scale (contextrank.PaperConfig(3), snippet packs);
// the words are every token of 512 feed stories, then random, Unicode,
// numeric and stop-word inputs and inflections of table keys.
func TestWordTableMatchesDefinition(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a paper-scale system")
	}
	s := core.Build(core.Config{
		Seed:  3,
		World: world.Config{VocabSize: 6000, NumTopics: 24, NumConcepts: 1200},
		News:  newsgen.Config{NumStories: 1100},
	})
	unranked := &ranksvm.Model{Weights: make([]float64, framework.ModelDim), Mean: make([]float64, framework.ModelDim), Scale: make([]float64, framework.ModelDim)}
	for d := range unranked.Scale {
		unranked.Scale[d] = 1
	}
	rt := framework.NewRuntime(s.Pipeline, nil, framework.BuildKeywordPacks(s.RelevanceStore(relevance.Snippets)), unranked)
	dict, unit, tids := s.Dict.Vocab(), s.Units.Vocab(), rt.Packs.TIDs

	hits, total := 0, 0
	check := func(w string) {
		t.Helper()
		wantTID := match.NoID
		if !textproc.IsStopword(w) {
			wantTID = tids.ID(stem.Stem(w))
		}
		wantIDs := detect.WordIDs{Dict: dict.ID(w), Unit: unit.ID(w)}
		tid, ids, inTable := rt.ResolveWord(w)
		if tid != wantTID || ids != wantIDs {
			t.Fatalf("word %q resolves to tid %d %+v, want tid %d %+v", w, tid, ids, wantTID, wantIDs)
		}
		if inTable {
			hits++
		}
		total++
	}

	feed := newsgen.NewFeed(s.World, newsgen.Config{Seed: 5}, 64)
	for n := 0; n < 512; {
		for _, story := range feed.NextBatch() {
			for _, tok := range textproc.TokenizeInto(story.Text, nil) {
				if tok.Kind != textproc.Punct {
					check(tok.Norm)
				}
			}
			n++
		}
	}
	t.Logf("feed: %d of %d tokens in the table of %d words", hits, total, rt.WordTableLen())

	for _, w := range textproc.Stopwords() {
		check(w)
	}
	for _, w := range []string{"naïve", "café", "中文", "über", "2008", "3.5", "1,000", "-12", "o'brien", "well-known", "x", "", "zzzz", "ies", "sses"} {
		check(w)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		var w string
		switch i % 4 {
		case 0: // a key of the table, inflected
			w = tids.Token(uint32(rng.Intn(tids.Len()))) + []string{"s", "ing", "ed", "ation", "ness", "ly", "er"}[rng.Intn(7)]
		case 1: // a detection vocabulary word, inflected
			w = dict.Token(uint32(rng.Intn(dict.Len()))) + "s"
		case 2: // random lower-case letters
			b := make([]byte, 1+rng.Intn(12))
			for j := range b {
				b[j] = byte('a' + rng.Intn(26))
			}
			w = string(b)
		default: // random bytes, lower-cased as the tokenizer would
			b := make([]byte, 1+rng.Intn(8))
			rng.Read(b)
			w = strings.ToLower(string(b))
		}
		check(w)
	}
}
