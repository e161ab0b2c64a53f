package searchsim

import (
	"slices"
	"testing"

	"contextrank/internal/textproc"
	"contextrank/internal/world"
)

// BuildCorpus composes its documents as token ids and never writes their
// text. For every document of several worlds, the ids must decode to the
// words textproc.Words finds in the prose ComposeDoc writes from the same
// draws (corpusTexts), under the same topic. The worlds are the tests'
// own, contextrank.SmallConfig's at seeds 42 and 7 and
// contextrank.PaperConfig's at seed 1, with their derived seeds.
func TestCorpusTokensMatchComposedText(t *testing.T) {
	small := func(seed int64) (world.Config, CorpusConfig) {
		return world.Config{Seed: seed + 1, VocabSize: 2000, NumTopics: 10, NumConcepts: 300},
			CorpusConfig{Seed: seed + 3, MaxDocsPerConcept: 18}
	}
	cases := []struct {
		name   string
		world  world.Config
		corpus CorpusConfig
	}{
		{name: "test world", world: world.Config{Seed: 31, VocabSize: 1500, NumTopics: 8, NumConcepts: 150}, corpus: testCorpusConfig},
		{name: "small seed 42"},
		{name: "small seed 7"},
		{name: "paper seed 1",
			world:  world.Config{Seed: 2, VocabSize: 6000, NumTopics: 24, NumConcepts: 1200},
			corpus: CorpusConfig{Seed: 4}},
	}
	cases[1].world, cases[1].corpus = small(42)
	cases[2].world, cases[2].corpus = small(7)
	for _, tc := range cases {
		w := world.New(tc.world)
		e := BuildCorpus(w, tc.corpus)
		texts, topics := corpusTexts(w, tc.corpus)
		if n := e.NumDocs(); n != len(texts) {
			t.Fatalf("%s: %d documents, %d composed texts", tc.name, n, len(texts))
		}
		var got []string
		var ids []uint32
		for id, text := range texts {
			d, ok := e.Doc(id)
			if !ok {
				t.Fatalf("%s: doc %d missing", tc.name, id)
			}
			ids = d.AppendTokens(ids[:0])
			got = got[:0]
			for _, tid := range ids {
				got = append(got, e.Vocab().Token(tid))
			}
			if want := textproc.Words(text); !slices.Equal(got, want) {
				t.Fatalf("%s: doc %d is %q,\nits text's words %q\ntext: %q", tc.name, id, got, want, text)
			}
			if d.Topic != topics[id] {
				t.Fatalf("%s: doc %d topic %d, composed under %d", tc.name, id, d.Topic, topics[id])
			}
		}
	}
}
