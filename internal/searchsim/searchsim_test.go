package searchsim

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"contextrank/internal/querylog"
	"contextrank/internal/textproc"
	"contextrank/internal/world"
)

// smallTexts is the five-document corpus of smallEngine.
var smallTexts = []string{
	"The Iraq war continued as troops advanced on the capital.",
	"Iraq war veterans returned home after the long war.",
	"The election debate covered policy and the economy.",
	"War movies about the Iraq war were released.",
	"Cuba policy under the embargo remained unchanged.",
}

func smallEngine() *Engine {
	e := NewEngine()
	for i, topic := range []int{0, 0, 1, 0, 1} {
		e.Add(smallTexts[i], topic)
	}
	e.Commit()
	return e
}

func TestResultCountPhrase(t *testing.T) {
	e := smallEngine()
	if got := e.ResultCount("iraq war"); got != 3 {
		t.Fatalf("ResultCount(iraq war) = %d, want 3", got)
	}
	if got := e.ResultCount("war iraq"); got != 0 {
		t.Fatalf("reversed phrase should not match, got %d", got)
	}
	if got := e.ResultCount("missing phrase"); got != 0 {
		t.Fatalf("missing phrase count = %d", got)
	}
	if got := e.ResultCount(""); got != 0 {
		t.Fatalf("empty phrase count = %d", got)
	}
}

func TestResultCountAnyOrder(t *testing.T) {
	e := smallEngine()
	// "war iraq" out of order still matches docs containing both.
	if got := e.ResultCountAnyOrder("war iraq"); got != 3 {
		t.Fatalf("any-order count = %d, want 3", got)
	}
	if phrase, free := e.ResultCount("war iraq"), e.ResultCountAnyOrder("war iraq"); phrase > free {
		t.Fatal("phrase count can never exceed any-order count")
	}
}

func TestSearchRanking(t *testing.T) {
	e := smallEngine()
	results := e.Search("iraq war", 10)
	if len(results) != 3 {
		t.Fatalf("Search returned %d results", len(results))
	}
	for i := 1; i < len(results); i++ {
		if results[i-1].Score < results[i].Score {
			t.Fatal("results not sorted by score")
		}
	}
	if got := e.Search("iraq war", 2); len(got) != 2 {
		t.Fatalf("k limit not applied: %d", len(got))
	}
}

func TestSnippetContainsPhrase(t *testing.T) {
	e := smallEngine()
	for _, snip := range e.Snippets("iraq war", 100) {
		if !strings.Contains(snip, "iraq war") {
			t.Fatalf("snippet %q missing phrase", snip)
		}
	}
}

func TestSnippetsCount(t *testing.T) {
	e := smallEngine()
	snips := e.Snippets("iraq war", 100)
	if len(snips) != 3 {
		t.Fatalf("Snippets = %d, want 3", len(snips))
	}
	for _, s := range snips {
		if s == "" {
			t.Fatal("empty snippet")
		}
	}
	// k ≤ 0 means every result, for Snippets as for Search.
	for _, k := range []int{0, -1} {
		if got := e.Snippets("iraq war", k); len(got) != 3 {
			t.Fatalf("Snippets(k=%d) = %d snippets, want 3", k, len(got))
		}
		if got := e.Search("iraq war", k); len(got) != 3 {
			t.Fatalf("Search(k=%d) = %d results, want 3", k, len(got))
		}
	}
}

// The term dictionary the paper describes — term-document frequencies over
// the indexed corpus — is read off the index itself.
type labelledEngine struct {
	label string
	e     *Engine
}

// dictEngines returns the small corpus indexed both ways, by Add and by the
// bulk build, so each counting rule below is checked on both.
func dictEngines() []labelledEngine {
	docs := make([]textDoc, len(smallTexts))
	for i, text := range smallTexts {
		docs[i] = textDoc{tokens: textproc.Words(text)}
	}
	return []labelledEngine{{"Add", smallEngine()}, {"bulk", bulkEngine(docs)}}
}

func TestDictionaryBuilt(t *testing.T) {
	for _, c := range dictEngines() {
		label, e := c.label, c.e
		if n := e.NumDocs(); n != 5 {
			t.Fatalf("%s: NumDocs = %d", label, n)
		}
		if df := e.DocFreq("war"); df != 3 {
			t.Fatalf("%s: df(war) = %d", label, df)
		}
	}
}

func TestDictionaryCounts(t *testing.T) {
	for _, c := range dictEngines() {
		label, e := c.label, c.e
		if n := e.NumDocs(); n != 5 {
			t.Fatalf("%s: NumDocs = %d", label, n)
		}
		if e.DocFreq("iraq") != 3 || e.DocFreq("cuba") != 1 || e.DocFreq("missing") != 0 {
			t.Fatalf("%s: doc freqs wrong: iraq=%d cuba=%d missing=%d", label,
				e.DocFreq("iraq"), e.DocFreq("cuba"), e.DocFreq("missing"))
		}
	}
}

// A term repeated within one document counts once: docs 1 and 3 say "war"
// twice, and "war" is in three documents.
func TestDictionaryDistinctTermsPerDoc(t *testing.T) {
	e := NewEngine()
	e.Add("war war war", 0)
	e.Commit()
	if df := e.DocFreq("war"); df != 1 {
		t.Fatalf("repeated term in one doc should count once, got %d", df)
	}
	for _, c := range dictEngines() {
		label, e := c.label, c.e
		if df := e.DocFreq("war"); df != 3 {
			t.Fatalf("%s: df(war) = %d, want 3 (docs 0, 1, 3)", label, df)
		}
	}
}

func TestIDFMonotone(t *testing.T) {
	for _, c := range dictEngines() {
		label, e := c.label, c.e
		if e.IDF("cuba") <= e.IDF("iraq") {
			t.Fatalf("%s: rarer terms must have higher idf", label)
		}
		if e.IDF("unseen") <= e.IDF("cuba") {
			t.Fatalf("%s: unseen terms must have the highest idf", label)
		}
		if e.IDF("unseen") <= 0 {
			t.Fatalf("%s: idf must be positive", label)
		}
		if got, want := e.IDF("war"), math.Log(6.0/4.0)+1; got != want {
			t.Fatalf("%s: IDF(war) = %v, want ln((N+1)/(df+1))+1 = %v", label, got, want)
		}
	}
}

// testCorpusConfig is the corpus testWorldCorpus builds.
var testCorpusConfig = CorpusConfig{Seed: 32, MaxDocsPerConcept: 20}

func testWorldCorpus(t testing.TB) (*world.World, *Engine) {
	w := world.New(world.Config{Seed: 31, VocabSize: 1500, NumTopics: 8, NumConcepts: 150})
	return w, BuildCorpus(w, testCorpusConfig)
}

// corpusTexts regenerates, in document-id order, the texts and topics that
// BuildCorpus(w, cfg) indexes: the engine keeps no text of its own, and
// BuildCorpus never writes one. Each document is composed as prose by
// ComposeDoc from the plan and draws BuildCorpus composes as token ids.
func corpusTexts(w *world.World, cfg CorpusConfig) (texts []string, topics []int) {
	cfg = cfg.withDefaults()
	for i := 0; i < numShards(w); i++ {
		generateShard(w, cfg, i, func(topic int, opts world.ComposeOptions, mentions []world.Mention, rng *rand.Rand) {
			text, _ := w.ComposeDoc(opts, mentions, rng)
			texts = append(texts, text)
			topics = append(topics, topic)
		})
	}
	return texts, topics
}

// Structural property for feature (4): more general concepts (low
// specificity) must on average return more results.
func TestGeneralConceptsReturnMoreResults(t *testing.T) {
	w, e := testWorldCorpus(t)
	var generalSum, generalN, specificSum, specificN float64
	for i := range w.Concepts {
		c := &w.Concepts[i]
		n := float64(e.ResultCount(c.Name))
		if c.Specificity < 0.3 {
			generalSum += n
			generalN++
		} else if c.Specificity > 0.7 {
			specificSum += n
			specificN++
		}
	}
	if generalN == 0 || specificN == 0 {
		t.Skip("world lacks extremes")
	}
	if generalSum/generalN <= specificSum/specificN {
		t.Fatalf("general avg %.1f should exceed specific avg %.1f",
			generalSum/generalN, specificSum/specificN)
	}
}

// Every concept must be findable: the corpus generator guarantees at least
// one document per concept.
func TestEveryConceptHasResults(t *testing.T) {
	w, e := testWorldCorpus(t)
	for i := range w.Concepts {
		c := &w.Concepts[i]
		if e.ResultCount(c.Name) == 0 {
			t.Errorf("concept %q has no results", c.Name)
		}
	}
}

func TestPrismaFeedback(t *testing.T) {
	w, e := testWorldCorpus(t)
	p := NewPrisma(e)
	var c *world.Concept
	for i := range w.Concepts {
		if w.Concepts[i].Specificity > 0.7 && w.Concepts[i].Quality > 0.6 {
			c = &w.Concepts[i]
			break
		}
	}
	if c == nil {
		t.Skip("no specific concept")
	}
	fb := p.Feedback(c.Name)
	if len(fb) == 0 {
		t.Fatal("no feedback terms")
	}
	if len(fb) > PrismaFeedbackLimit {
		t.Fatalf("feedback exceeds Prisma cap: %d", len(fb))
	}
	for i := 1; i < len(fb); i++ {
		if fb[i-1].Weight < fb[i].Weight {
			t.Fatal("feedback not sorted")
		}
	}
	// Query terms themselves must not be suggested back.
	for _, entry := range fb {
		for _, qt := range strings.Fields(c.Name) {
			if entry.Term == qt {
				t.Fatalf("feedback contains query term %q", qt)
			}
		}
	}
}

func TestSuggestor(t *testing.T) {
	w, _ := testWorldCorpus(t)
	log := querylog.Generate(w, querylog.Config{Seed: 33})
	s := NewSuggestor(log)
	// Pick a popular multi-term concept: its name appears in many variants.
	var c *world.Concept
	for i := range w.Concepts {
		cc := &w.Concepts[i]
		if cc.Interest > 0.5 && len(cc.Terms) >= 2 {
			c = cc
			break
		}
	}
	if c == nil {
		t.Skip("no hot concept")
	}
	suggestions := s.Suggest(c.Name, 0)
	if len(suggestions) == 0 {
		t.Fatalf("no suggestions for %q", c.Name)
	}
	if len(suggestions) > SuggestionLimit {
		t.Fatalf("more than %d suggestions", SuggestionLimit)
	}
	for _, sg := range suggestions {
		if sg.Text == c.Name {
			t.Fatal("suggestion equals the query itself")
		}
		if sg.Freq <= 0 {
			t.Fatalf("non-positive frequency: %+v", sg)
		}
	}
	// Phrase-containing suggestions must come first.
	if !strings.Contains(suggestions[0].Text, c.Terms[0]) {
		t.Logf("first suggestion %q does not share first term (allowed but unusual)", suggestions[0].Text)
	}
}

func TestSuggestLimits(t *testing.T) {
	log := querylog.FromCounts(map[string]int{
		"alpha beta": 10, "alpha beta gamma": 5, "alpha": 3, "delta": 2,
	})
	s := NewSuggestor(log)
	if got := s.Suggest("alpha beta", 1); len(got) != 1 {
		t.Fatalf("max=1 returned %d", len(got))
	}
	if got := s.Suggest("", 0); got != nil {
		t.Fatalf("empty query suggestions = %v", got)
	}
}

func BenchmarkPhraseSearch(b *testing.B) {
	w, e := testWorldCorpus(b)
	name := w.Concepts[len(w.Concepts)/2].Name
	e.ResultCount(name) // warm the memoized count so steady-state is measured
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.ResultCount(name)
	}
}
