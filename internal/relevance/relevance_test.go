package relevance

import (
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"contextrank/internal/corpus"
	"contextrank/internal/match"
	"contextrank/internal/querylog"
	"contextrank/internal/searchsim"
	"contextrank/internal/world"
)

type fixture struct {
	w     *world.World
	eng   *searchsim.Engine
	miner *Miner
}

func newFixture(t testing.TB) *fixture {
	t.Helper()
	w := world.New(world.Config{Seed: 71, VocabSize: 1500, NumTopics: 8, NumConcepts: 150})
	eng := searchsim.BuildCorpus(w, searchsim.CorpusConfig{Seed: 72, MaxDocsPerConcept: 25})
	log := querylog.Generate(w, querylog.Config{Seed: 73})
	miner := NewMiner(eng, searchsim.NewPrisma(eng), searchsim.NewSuggestor(log))
	return &fixture{w: w, eng: eng, miner: miner}
}

func pick(w *world.World, pred func(*world.Concept) bool) *world.Concept {
	for i := range w.Concepts {
		if pred(&w.Concepts[i]) {
			return &w.Concepts[i]
		}
	}
	return nil
}

// The miner's fact tables are built at the first Mine; the engine keeps
// ingesting. Words interned after that have no idf or stem facts, so every
// resource must skip them — not fault on an id past the tables' end, and not
// let them into a keyword vector.
func TestMineAfterIngestSkipsLateTerms(t *testing.T) {
	f := newFixture(t)
	c := pick(f.w, func(c *world.Concept) bool { return c.Specificity > 0.6 && c.Quality > 0.6 })
	if c == nil {
		t.Skip("no specific concept")
	}
	if len(f.miner.Mine(c.Name, Snippets)) == 0 { // also builds the fact tables
		t.Fatal("no keywords mined before ingest")
	}
	tableLen := uint32(f.eng.Vocab().Len())

	// Short documents dense in the concept rank high for both retrievals
	// (phrase count and term frequency over a tiny length), so the late
	// words sit inside the mined snippet windows and the feedback docs.
	for i := 0; i < 30; i++ {
		f.eng.Add("zzqlatealpha "+c.Name+" zzqlatealpha "+c.Name+" zzqlatealpha "+c.Name+" zzqlatebeta", c.Topic)
	}
	f.eng.Commit()
	if id := f.eng.Vocab().ID("zzqlatealpha"); id < tableLen {
		t.Fatalf("late word got id %d inside the fact table (%d terms)", id, tableLen)
	}
	top := f.eng.Snippets(c.Name, SnippetDepth)
	if !strings.Contains(strings.Join(top, " "), "zzqlate") {
		t.Fatalf("ingested docs did not reach the mined snippet windows: %q", top)
	}
	lateFeedback := false
	searchsim.NewPrisma(f.eng).VisitFeedback(c.Name, func(term uint32, _ float64) {
		lateFeedback = lateFeedback || term >= tableLen
	})
	if !lateFeedback {
		t.Fatal("no late word among the Prisma feedback terms; the test does not reach minePrismaIDs' guard")
	}

	for _, r := range []Resource{Snippets, Prisma, Suggestions} {
		for _, e := range f.miner.Mine(c.Name, r) {
			if strings.HasPrefix(e.Term, "zzqlate") {
				t.Fatalf("%s: late word %q scored without facts", r, e.Term)
			}
		}
	}
	assign := make([]int, len(top))
	for i := range assign {
		assign[i] = i % 2
	}
	for _, v := range f.miner.MineClusters(c.Name, assign, 2) {
		for _, e := range v {
			if strings.HasPrefix(e.Term, "zzqlate") {
				t.Fatalf("clusters: late word %q scored without facts", e.Term)
			}
		}
	}
}

func TestMineSnippetsBasics(t *testing.T) {
	f := newFixture(t)
	c := pick(f.w, func(c *world.Concept) bool { return c.Specificity > 0.6 && c.Quality > 0.6 })
	if c == nil {
		t.Skip("no specific concept")
	}
	v := f.miner.Mine(c.Name, Snippets)
	if len(v) == 0 {
		t.Fatal("no keywords mined")
	}
	if len(v) > TopM {
		t.Fatalf("more than %d keywords: %d", TopM, len(v))
	}
	for i := 1; i < len(v); i++ {
		if v[i-1].Weight < v[i].Weight {
			t.Fatal("keywords not sorted")
		}
	}
	for _, e := range v {
		if e.Weight <= 0 {
			t.Fatalf("non-positive keyword score: %+v", e)
		}
	}
}

func TestMineExcludesOwnTerms(t *testing.T) {
	f := newFixture(t)
	c := pick(f.w, func(c *world.Concept) bool { return len(c.Terms) >= 2 && c.Quality > 0.5 })
	if c == nil {
		t.Skip("no multi-term concept")
	}
	own := ownStems(c.Name)
	for _, r := range []Resource{Snippets, Prisma, Suggestions} {
		for _, e := range f.miner.Mine(c.Name, r) {
			if own[e.Term] {
				t.Fatalf("%v keywords contain own term %q", r, e.Term)
			}
		}
	}
}

// The Table II effect: specific, good concepts must have much larger
// keyword-score summations than low-quality general phrases.
func TestSummationSeparatesQuality(t *testing.T) {
	f := newFixture(t)
	store := BuildStore(f.miner, conceptNames(f.w), Snippets)
	var specSum, specN, lowSum, lowN float64
	for i := range f.w.Concepts {
		c := &f.w.Concepts[i]
		s := store.Summation(c.Name)
		if c.LowQuality() {
			lowSum += s
			lowN++
		} else if c.Specificity > 0.7 && c.Quality > 0.6 {
			specSum += s
			specN++
		}
	}
	if specN == 0 || lowN == 0 {
		t.Skip("world lacks extremes")
	}
	specAvg, lowAvg := specSum/specN, lowSum/lowN
	// The paper's Table II shows a ~5x spread; the synthetic world
	// reproduces the direction with a smaller factor (see EXPERIMENTS.md).
	if specAvg <= 1.3*lowAvg {
		t.Fatalf("specific avg summation %.1f not well above low-quality %.1f", specAvg, lowAvg)
	}
}

// Relevance scoring must separate relevant from irrelevant contexts for the
// same concept — the core property the ranker relies on.
func TestScoreRelevantVsIrrelevantContext(t *testing.T) {
	f := newFixture(t)
	c := pick(f.w, func(c *world.Concept) bool {
		return c.Specificity > 0.7 && c.Quality > 0.6 && c.Topic >= 0
	})
	if c == nil {
		t.Skip("no specific concept")
	}
	store := BuildStore(f.miner, []string{c.Name}, Snippets)
	rng := rand.New(rand.NewSource(99))

	relevantDoc, _ := f.w.ComposeDoc(world.ComposeOptions{Topic: c.Topic},
		[]world.Mention{{Concept: c, Relevant: true, Repeat: 2}}, rng)
	otherTopic := (c.Topic + 3) % len(f.w.Topics)
	irrelevantDoc, _ := f.w.ComposeDoc(world.ComposeOptions{Topic: otherTopic},
		[]world.Mention{{Concept: c, Relevant: false}}, rng)

	ctx := NewCtx(store.Dict())
	ctx.SetText(relevantDoc)
	relScore := store.ScoreCtx(c.Name, ctx)
	ctx.SetText(irrelevantDoc)
	irrScore := store.ScoreCtx(c.Name, ctx)
	if relScore <= irrScore {
		t.Fatalf("relevant context score %.2f not above irrelevant %.2f", relScore, irrScore)
	}
}

func TestScoreUnknownConcept(t *testing.T) {
	store := NewStore(map[string]corpus.Vector{})
	ctx := NewCtx(store.Dict())
	ctx.SetText("x")
	if got := store.ScoreCtx("unknown", ctx); got != 0 {
		t.Fatalf("unknown concept score = %v", got)
	}
	if got := store.Summation("unknown"); got != 0 {
		t.Fatalf("unknown summation = %v", got)
	}
}

func TestScoreHandStore(t *testing.T) {
	store := NewStore(map[string]corpus.Vector{
		"iraq war": {{Term: "troop", Weight: 5}, {Term: "baghdad", Weight: 3}, {Term: "soldier", Weight: 1}},
	})
	ctx := NewCtx(store.Dict())
	ctx.SetText("Troops, soldiers and a banana.")
	if got := store.ScoreCtx("iraq war", ctx); got != 6 {
		t.Fatalf("ScoreCtx = %v, want 6", got)
	}
	ctx.SetText("")
	if got := store.ScoreCtx("iraq war", ctx); got != 0 {
		t.Fatalf("empty context score = %v", got)
	}
}

// A Ctx marks ids of one dictionary; another store's ids would read the
// wrong marks, so scoring against it panics.
func TestScoreCtxOtherDictionaryPanics(t *testing.T) {
	terms := map[string]corpus.Vector{"iraq war": {{Term: "troop", Weight: 5}}}
	a, b := NewStore(terms), NewStore(terms)
	defer func() {
		if recover() == nil {
			t.Fatal("a context over another store's dictionary scored")
		}
	}()
	b.ScoreCtx("iraq war", NewCtx(a.Dict()))
}

func TestContextStemsStemmedAndFiltered(t *testing.T) {
	stems := ContextStems("The troops were advancing through Baghdad quickly.")
	if !stems["troop"] {
		t.Fatalf("expected stemmed 'troop' in %v", stems)
	}
	if stems["the"] || stems["were"] {
		t.Fatal("stopwords must be removed")
	}
}

func TestMinePrismaRespectsCap(t *testing.T) {
	f := newFixture(t)
	c := pick(f.w, func(c *world.Concept) bool { return c.Quality > 0.5 })
	v := f.miner.Mine(c.Name, Prisma)
	// Prisma feeds at most 20 raw terms; stemming can only merge them.
	if len(v) > searchsim.PrismaFeedbackLimit {
		t.Fatalf("prisma mined %d terms, cap is %d", len(v), searchsim.PrismaFeedbackLimit)
	}
}

// A store keeps every mined vector for the process's lifetime, so a stored
// keyword vector must hold no capacity past its TopM entries — not the
// slack of the hundreds of candidate stems it was cut from.
func TestMinedVectorsExactSize(t *testing.T) {
	f := newFixture(t)
	names := conceptNames(f.w)
	for _, r := range []Resource{Snippets, Prisma, Suggestions} {
		s := BuildStore(f.miner, names, r)
		full := 0
		for _, c := range s.Concepts() {
			v := s.keywords[c]
			if cap(v) != len(v) {
				t.Fatalf("%s: %q's vector has %d entries and capacity %d", r, c, len(v), cap(v))
			}
			if len(v) == TopM {
				full++
			}
		}
		if r == Snippets && full == 0 {
			t.Fatal("no snippet vector reached TopM: the truncation is not exercised")
		}
	}
}

// Snippets must provide keyword coverage at least as large as Prisma's
// (the paper's explanation for Table IV: "snippets provide much better
// coverage of keywords compared to Prisma and query suggestions").
func TestSnippetCoverageExceedsPrisma(t *testing.T) {
	f := newFixture(t)
	var snippetTotal, prismaTotal int
	n := 0
	for i := range f.w.Concepts {
		c := &f.w.Concepts[i]
		if c.Quality < 0.5 || n >= 20 {
			continue
		}
		n++
		snippetTotal += len(f.miner.Mine(c.Name, Snippets))
		prismaTotal += len(f.miner.Mine(c.Name, Prisma))
	}
	if n == 0 {
		t.Skip("no concepts")
	}
	if snippetTotal <= prismaTotal {
		t.Fatalf("snippet coverage %d not above prisma %d", snippetTotal, prismaTotal)
	}
}

func TestStoreConceptsSorted(t *testing.T) {
	store := NewStore(map[string]corpus.Vector{"b": nil, "a": nil, "c": nil})
	got := store.Concepts()
	if len(got) != 3 || got[0] != "a" || got[2] != "c" {
		t.Fatalf("Concepts = %v", got)
	}
}

func TestResourceString(t *testing.T) {
	if Snippets.String() != "snippets" || Prisma.String() != "prisma" || Suggestions.String() != "suggestions" {
		t.Fatal("Resource.String broken")
	}
}

func conceptNames(w *world.World) []string {
	out := make([]string, len(w.Concepts))
	for i := range w.Concepts {
		out[i] = w.Concepts[i].Name
	}
	return out
}

func BenchmarkMineSnippets(b *testing.B) {
	f := newFixture(b)
	name := f.w.Concepts[30].Name
	f.miner.Mine(name, Snippets) // warm the term table and pooled scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.miner.Mine(name, Snippets)
	}
}

// BenchmarkStoreSize reports store-bytes: what a Snippets store of the
// fixture's concepts retains beyond its miner's dictionary — the live heap
// after the store is built less the live heap before, each after two full
// collections (the second empties sync.Pool's victim cache), with the
// miner's dictionary and scratch already built. It is every byte the
// store holds by capacity: its map and its exact-size keyword vectors.
func BenchmarkStoreSize(b *testing.B) {
	f := newFixture(b)
	names := conceptNames(f.w)
	BuildStore(f.miner, names, Snippets) // build the dictionary and warm the scratch
	var bytes uint64
	for i := 0; i < b.N; i++ {
		before := liveHeap()
		s := BuildStore(f.miner, names, Snippets)
		bytes = liveHeap() - before
		if s.Dict() != f.miner.Dict() {
			b.Fatal("the store does not share its miner's dictionary")
		}
	}
	b.ReportMetric(float64(bytes), "store-bytes")
}

// BenchmarkVocabSize reports vocab-bytes: the live heap of the fixture's
// engine vocabulary and its miner's stem dictionary, each interned term by
// term into a fresh vocabulary between two liveHeap readings, as
// BenchmarkStoreSize measures a store. Interning in id order rebuilds
// each table as it was built, so this is every byte the two hold — pages,
// offset chunks and hash table — and a per-term object cannot come back
// unseen.
func BenchmarkVocabSize(b *testing.B) {
	f := newFixture(b)
	src := []*match.Vocab{f.eng.Vocab(), f.miner.Dict()}
	var bytes uint64
	for i := 0; i < b.N; i++ {
		before := liveHeap()
		copies := make([]*match.Vocab, len(src))
		for j, v := range src {
			copies[j] = match.NewVocab()
			for id := range v.Len() {
				copies[j].Intern(v.Token(uint32(id)))
			}
		}
		bytes = liveHeap() - before
		runtime.KeepAlive(copies)
	}
	b.ReportMetric(float64(bytes), "vocab-bytes")
}

// liveHeap is the bytes in live heap objects after two full collections.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

func BenchmarkRelevanceScore(b *testing.B) {
	f := newFixture(b)
	names := conceptNames(f.w)[:50]
	store := BuildStore(f.miner, names, Snippets)
	rng := rand.New(rand.NewSource(5))
	doc, _ := f.w.ComposeDoc(world.ComposeOptions{Topic: 0, Sentences: 20}, nil, rng)
	ctx := NewCtx(store.Dict())
	ctx.SetText(doc)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		store.ScoreCtx(names[i%len(names)], ctx)
	}
}

// BuildStore mines concurrently; the result must be identical to the
// sequential path and race-free.
func TestBuildStoreParallelDeterministic(t *testing.T) {
	f := newFixture(t)
	names := conceptNames(f.w)[:40]
	s1 := BuildStore(f.miner, names, Snippets)
	s2 := BuildStore(f.miner, names, Snippets)
	for _, n := range names {
		a, b := resolve(s1.dict, s1.keywords[n]), resolve(s2.dict, s2.keywords[n])
		if len(a) != len(b) {
			t.Fatalf("%q: %d terms vs %d", n, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%q: term %d differs: %+v vs %+v", n, i, a[i], b[i])
			}
		}
	}
}
