package core

import (
	"math"
	"testing"

	"contextrank/internal/features"
	"contextrank/internal/newsgen"
	"contextrank/internal/ranksvm"
	"contextrank/internal/relevance"
	"contextrank/internal/searchsim"
	"contextrank/internal/world"
)

// testSystem builds a small but statistically meaningful system (shared
// across tests in this package via sync-free lazy init under `go test`'s
// sequential default).
var cachedSystem *System

func testSystem(t testing.TB) *System {
	t.Helper()
	if cachedSystem == nil {
		cachedSystem = Build(Config{
			Seed:   1000,
			World:  world.Config{VocabSize: 2000, NumTopics: 10, NumConcepts: 300},
			Corpus: searchsim.CorpusConfig{MaxDocsPerConcept: 18},
			News:   newsgen.Config{NumStories: 250},
		})
	}
	return cachedSystem
}

func TestBuildSystemShape(t *testing.T) {
	s := testSystem(t)
	if len(s.Cleaned) == 0 || len(s.Groups) == 0 {
		t.Fatalf("no cleaned reports (%d) or groups (%d)", len(s.Cleaned), len(s.Groups))
	}
	if len(s.Cleaned) >= len(s.Reports) {
		t.Fatal("cleaning removed nothing")
	}
	if len(s.Groups) < len(s.Cleaned) {
		t.Fatal("windowing lost stories")
	}
}

func TestDatasetConstruction(t *testing.T) {
	s := testSystem(t)
	groups := s.Dataset([]relevance.Resource{relevance.Snippets})
	if len(groups) != len(s.Groups) {
		t.Fatalf("dataset groups %d != window groups %d", len(groups), len(s.Groups))
	}
	for _, g := range groups {
		if len(g.Examples) < 2 {
			t.Fatal("group with < 2 examples")
		}
		for _, ex := range g.Examples {
			if ex.CTR < 0 || ex.CTR > 1 {
				t.Fatalf("CTR out of range: %v", ex.CTR)
			}
			if ex.RelScore == nil {
				t.Fatal("missing relevance scores")
			}
			if ex.Fields.NumberOfChars == 0 {
				t.Fatal("missing fields")
			}
		}
	}
}

func TestFieldsCached(t *testing.T) {
	s := testSystem(t)
	name := s.World.Concepts[0].Name
	f1 := s.Fields(name)
	f2 := s.Fields(name)
	if f1 != f2 {
		t.Fatal("cache returned different values")
	}
}

func TestAblationChangesDim(t *testing.T) {
	s := testSystem(t)
	groups := s.Dataset(nil)
	m := &LearnedMethod{FeatureGroups: features.Without(features.GroupQueryLogs), Options: ranksvm.Options{Seed: 5, MaxIter: 20}}
	// Fit on a small slice just to exercise the path.
	if err := m.Fit(groups[:10]); err != nil {
		t.Fatal(err)
	}
	scores := m.Score(&groups[0])
	if len(scores) != len(groups[0].Examples) {
		t.Fatal("score length mismatch")
	}
}

func TestAllCTRs(t *testing.T) {
	s := testSystem(t)
	groups := s.Dataset(nil)
	ctrs := AllCTRs(groups)
	n := 0
	for _, g := range groups {
		n += len(g.Examples)
	}
	if len(ctrs) != n {
		t.Fatalf("AllCTRs = %d, want %d", len(ctrs), n)
	}
}

func TestGroupFromStory(t *testing.T) {
	s := testSystem(t)
	story := &s.Stories[0]
	g := s.GroupFromStory(story, []relevance.Resource{relevance.Snippets})
	if len(g.Examples) != len(story.Mentions) {
		t.Fatalf("examples %d != mentions %d", len(g.Examples), len(story.Mentions))
	}
	for _, ex := range g.Examples {
		if ex.RelScore == nil || ex.RelNorm == nil {
			t.Fatal("relevance scores missing")
		}
		if ex.RelNorm[relevance.Snippets] < 0 || ex.RelNorm[relevance.Snippets] > 1 {
			t.Fatalf("normalized relevance out of [0,1]: %v", ex.RelNorm[relevance.Snippets])
		}
	}
}

func TestDataStats(t *testing.T) {
	s := testSystem(t)
	st := s.DataStats()
	if st.CleanStories == 0 || st.CleanStories > st.RawStories {
		t.Fatalf("story counts: %+v", st)
	}
	if st.Windows < st.CleanStories {
		t.Fatalf("windows %d < stories %d", st.Windows, st.CleanStories)
	}
	if st.Concepts == 0 || st.Clicks == 0 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestStoresShareOneDictionary: the miner's stem vocabulary is the one
// dictionary behind every store the system mines. Each resource's store
// resolves its keyword ids through the miner's own *match.Vocab, and the
// keywords it resolves are the ones Mine spells out.
func TestStoresShareOneDictionary(t *testing.T) {
	s := testSystem(t)
	dict := s.Miner.Dict()
	for _, r := range []relevance.Resource{relevance.Snippets, relevance.Prisma, relevance.Suggestions} {
		st := s.RelevanceStore(r)
		if st.Dict() != dict {
			t.Fatalf("%s store resolves through a dictionary other than the miner's", r)
		}
		kept := 0
		for i, c := range st.Concepts() {
			ks := st.Keywords(c)
			kept += len(ks)
			if i%25 != 0 {
				continue
			}
			mined := s.Miner.Mine(c, r)
			if len(ks) != len(mined) {
				t.Fatalf("%s store holds %d keywords of %q, Mine %d", r, len(ks), c, len(mined))
			}
			for j, k := range ks {
				if e := mined[j]; dict.Token(k.Stem) != e.Term || k.Weight != e.Weight { //kwlint:ignore floatcompare — the store keeps Mine's weights, so bit-exact equality is the contract
					t.Fatalf("%s store's keywords of %q differ from Mine's", r, c)
				}
			}
		}
		if kept == 0 {
			t.Fatalf("%s store holds no keywords", r)
		}
	}
}

// A multi-resource join loads each example's window once and scores every
// store against it: each resource's scores are bit for bit those of a join
// over that resource alone.
func TestDatasetScoresEachResourceAsAlone(t *testing.T) {
	s := testSystem(t)
	all := []relevance.Resource{relevance.Snippets, relevance.Prisma, relevance.Suggestions}
	joined := s.Dataset(all)
	for _, r := range all {
		alone := s.Dataset([]relevance.Resource{r})
		for g := range joined {
			for i, ex := range joined[g].Examples {
				want := alone[g].Examples[i]
				if math.Float64bits(ex.RelScore[r]) != math.Float64bits(want.RelScore[r]) ||
					math.Float64bits(ex.RelNorm[r]) != math.Float64bits(want.RelNorm[r]) {
					t.Fatalf("%s: group %d example %d scores %v/%v joined, %v/%v alone",
						r, g, i, ex.RelScore[r], ex.RelNorm[r], want.RelScore[r], want.RelNorm[r])
				}
			}
		}
	}
}
