package relevance

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"contextrank/internal/corpus"
	"contextrank/internal/newsgen"
	"contextrank/internal/searchsim"
	"contextrank/internal/world"
)

// refMine is the string reference path (oracle_test.go). Mine must reproduce
// it bit for bit.
func refMine(mn *Miner, concept string, r Resource) corpus.Vector {
	switch r {
	case Snippets:
		return mn.mineSnippets(concept)
	case Prisma:
		return mn.minePrisma(concept)
	default:
		return mn.mineSuggestions(concept)
	}
}

// TestDifferentialInternedMine pins the interned-ID mining path to the
// string reference, bit-identical (same terms, same float weights, same
// order), for every resource over a spread of concepts — including repeated
// mining of the same concept, which exercises pooled-scratch reuse.
func TestDifferentialInternedMine(t *testing.T) {
	f := newFixture(t)
	concepts := []string{}
	for i := range f.w.Concepts {
		if i%11 == 0 {
			concepts = append(concepts, f.w.Concepts[i].Name)
		}
	}
	concepts = append(concepts, concepts[0], "unknownterm zzz", "")
	for _, r := range []Resource{Snippets, Prisma, Suggestions} {
		for _, c := range concepts {
			want := refMine(f.miner, c, r)
			got := f.miner.Mine(c, r)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s(%q): interned path diverged\n got %v\nwant %v", r, c, got, want)
			}
		}
	}
}

// TestDifferentialInternedMineParallel pins the interned path under
// BuildStore at several GOMAXPROCS widths against a serial string-path
// store: pooled scratch must not leak state across workers or concepts.
func TestDifferentialInternedMineParallel(t *testing.T) {
	f := newFixture(t)
	concepts := []string{}
	for i := 0; i < len(f.w.Concepts); i += 7 {
		concepts = append(concepts, f.w.Concepts[i].Name)
	}
	for _, r := range []Resource{Snippets, Prisma, Suggestions} {
		want := make(map[string]corpus.Vector, len(concepts))
		for _, c := range concepts {
			want[c] = refMine(f.miner, c, r)
		}
		for _, procs := range []int{1, 4, runtime.NumCPU()} {
			setGOMAXPROCS(t, procs)
			st := BuildStore(f.miner, concepts, r)
			for _, c := range concepts {
				if !reflect.DeepEqual(resolve(st.dict, st.keywords[c]), want[c]) {
					t.Fatalf("%s GOMAXPROCS=%d %q: parallel interned store diverged", r, procs, c)
				}
			}
		}
	}
}

// setGOMAXPROCS is the root package's helper (parallel_test.go).
func setGOMAXPROCS(t *testing.T, n int) {
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// TestDifferentialCtxScore pins the id-keyed context scorer to the map path:
// identical float scores for full-document and windowed contexts, across
// reuse of one Ctx.
func TestDifferentialCtxScore(t *testing.T) {
	f := newFixture(t)
	concepts := []string{}
	for i := 0; i < len(f.w.Concepts); i += 13 {
		concepts = append(concepts, f.w.Concepts[i].Name)
	}
	st := BuildStore(f.miner, concepts, Snippets)
	ctx := NewCtx(st.Dict())

	for _, story := range newsgen.Generate(f.w, newsgen.Config{Seed: 74, NumStories: 12}) {
		text := story.Text
		stems := ContextStems(text)
		ctx.SetText(text)
		for _, c := range concepts {
			if got, want := st.ScoreCtx(c, ctx), st.Score(c, stems); got != want { //kwlint:ignore floatcompare — differential test: both paths must be bit-identical
				t.Fatalf("ScoreCtx(%q) = %v, map path = %v", c, got, want)
			}
			if got, want := st.NormalizedScoreCtx(c, ctx), st.NormalizedScore(c, stems); got != want { //kwlint:ignore floatcompare — differential test: both paths must be bit-identical
				t.Fatalf("NormalizedScoreCtx(%q) = %v, map path = %v", c, got, want)
			}
		}
		// Windowed local context at a few positions.
		for _, pos := range []int{0, len(text) / 2, len(text)} {
			stems := ContextStemsAround(text, pos)
			ctx.SetAround(text, pos)
			for _, c := range concepts {
				if got, want := st.ScoreCtx(c, ctx), st.Score(c, stems); got != want { //kwlint:ignore floatcompare — differential test: both paths must be bit-identical
					t.Fatalf("windowed ScoreCtx(%q, pos=%d) = %v, map path = %v", c, pos, got, want)
				}
			}
		}
	}
}

// TestCtxFreshMatchesNothing: a Ctx that has never been loaded scores zero.
func TestCtxFreshMatchesNothing(t *testing.T) {
	f := newFixture(t)
	c := pick(f.w, func(c *world.Concept) bool { return c.Specificity > 0.6 })
	st := BuildStore(f.miner, []string{c.Name}, Snippets)
	if got := st.ScoreCtx(c.Name, NewCtx(st.Dict())); got != 0 {
		t.Fatalf("fresh Ctx scored %v, want 0", got)
	}
}

// TestDifferentialMineClusters pins MineClusters' interned per-cluster
// mining to the string reference, bit for bit, over seeded random cluster
// assignments of each concept's snippets. Whenever k > 1 one cluster is
// left without snippets, so its nil vector is checked too.
func TestDifferentialMineClusters(t *testing.T) {
	w := world.New(world.Config{Seed: 171, VocabSize: 2000, NumTopics: 8, NumConcepts: 200, AmbiguousFraction: 0.3})
	eng := searchsim.BuildCorpus(w, searchsim.CorpusConfig{Seed: w.Config.Seed + 1, MaxDocsPerConcept: 25})
	mn := NewMiner(eng, nil, nil)
	rng := rand.New(rand.NewSource(17))
	checked, split, empty := 0, 0, 0
	for i := 0; i < len(w.Concepts); i += 9 {
		name := w.Concepts[i].Name
		snippets := eng.Snippets(name, SnippetDepth)
		if len(snippets) == 0 {
			continue
		}
		for _, k := range []int{1, 2, 3, 5} {
			skip := rng.Intn(k)
			assign := make([]int, len(snippets))
			for j := range assign {
				a := rng.Intn(k)
				if k > 1 && a == skip {
					a = (a + 1) % k
				}
				assign[j] = a
			}
			want := mn.mineClustersRef(name, snippets, assign, k)
			got := mn.MineClusters(name, assign, k)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("MineClusters(%q, k=%d) diverged from the string reference\n got %v\nwant %v", name, k, got, want)
			}
			filled := 0
			for _, v := range got {
				if v == nil {
					empty++
				} else {
					filled++
				}
			}
			if filled > 1 {
				split++
			}
		}
		checked++
	}
	if checked == 0 || split == 0 || empty == 0 {
		t.Fatalf("fixture too thin: %d concepts, %d multi-cluster results, %d empty clusters", checked, split, empty)
	}
}
