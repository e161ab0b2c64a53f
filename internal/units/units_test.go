package units

import (
	"reflect"
	"strings"
	"testing"

	"contextrank/internal/querylog"
	"contextrank/internal/world"
)

// addFiller adds unrelated single-term traffic so that phrase probabilities
// are small enough for mutual information to be meaningful, as in a real
// query log.
func addFiller(counts map[string]int) map[string]int {
	for i := 0; i < 50; i++ {
		counts["filler"+string(rune('a'+i%26))+string(rune('a'+i/26))] = 100
	}
	return counts
}

// handConfig relaxes the MI threshold to match the small scale of
// hand-crafted logs (the default 2.0 is calibrated for generated logs with
// hundreds of thousands of submissions).
var handConfig = Config{MinMI: 0.5}

// handLog builds a log where "global warming" is a strong unit and
// "warming random" is an incidental co-occurrence.
func handLog() *querylog.Log {
	counts := addFiller(map[string]int{
		"global warming":         500,
		"global warming effects": 120,
		"stop global warming":    80,
		"global economy":         300,
		"warming":                50,
		"global":                 200,
		"random warming stuff":   2,
		"effects":                90,
		"stop":                   60,
		"economy news":           40,
		"news":                   150,
		"economy":                70,
	})
	return querylog.FromCounts(counts)
}

func TestSingleTermsAreUnits(t *testing.T) {
	s := Extract(handLog(), handConfig)
	for _, term := range []string{"global", "warming", "economy", "news"} {
		u := s.units[term]
		if u == nil {
			t.Fatalf("single term %q should be a unit", term)
		}
		if u.Score <= 0 || u.Score > 1 {
			t.Fatalf("single-term score out of range: %v", u.Score)
		}
	}
}

func TestStrongPairBecomesUnit(t *testing.T) {
	s := Extract(handLog(), handConfig)
	u := s.units["global warming"]
	if u == nil {
		t.Fatal("'global warming' should be validated as a unit")
	}
	if _, mis := referenceExtract(handLog(), handConfig); mis["global warming"] <= 0 {
		t.Fatalf("MI should be positive, got %v", mis["global warming"])
	}
	if u.Score <= 0 || u.Score > 1 {
		t.Fatalf("normalized score out of range: %v", u.Score)
	}
}

func TestRareCooccurrenceRejected(t *testing.T) {
	s := Extract(handLog(), Config{MinMI: 0.5, MinFreq: 5})
	if s.units["random warming"] != nil {
		t.Fatal("freq-2 candidate should fail MinFreq")
	}
}

func TestScoreOfNonUnit(t *testing.T) {
	s := Extract(handLog(), handConfig)
	if got := s.Score("definitely not present"); got != 0 {
		t.Fatalf("Score of non-unit = %v", got)
	}
}

func TestThreeTermUnits(t *testing.T) {
	counts := addFiller(map[string]int{
		"new york city":    400,
		"new york":         600,
		"york city":        350,
		"new":              100,
		"york":             50,
		"city":             120,
		"new york weather": 90,
		"weather":          80,
	})
	s := Extract(querylog.FromCounts(counts), handConfig)
	if s.units["new york"] == nil {
		t.Fatal("'new york' should be a unit")
	}
	u := s.units["new york city"]
	if u == nil {
		t.Fatal("'new york city' should be a unit (both splits validated)")
	}
	if len(u.Terms) != 3 {
		t.Fatalf("Terms = %v", u.Terms)
	}
}

// findInTokens is the caller's side of FindInIDs: intern the tokens into
// the set's vocabulary, then scan the ids.
func findInTokens(s *Set, tokens []string) []Match {
	return s.FindInIDs(s.Vocab().AppendIDs(nil, tokens), nil)
}

func TestFindInTokensGreedyLongest(t *testing.T) {
	counts := addFiller(map[string]int{
		"new york city": 400, "new york": 600, "york city": 350,
		"new": 100, "york": 50, "city": 120,
	})
	s := Extract(querylog.FromCounts(counts), handConfig)
	tokens := []string{"visit", "new", "york", "city", "today"}
	matches := findInTokens(s, tokens)
	var texts []string
	for _, m := range matches {
		texts = append(texts, m.Unit.Text)
	}
	// Greedy-longest: position 1 matches "new york city"; positions 2 and 3
	// still match their own longest units ("york city", "city").
	found := false
	for _, m := range matches {
		if m.Unit.Text == "new york city" && m.Start == 1 && m.End == 4 {
			found = true
		}
	}
	if !found {
		t.Fatalf("expected greedy-longest match of 'new york city', got %v", texts)
	}
}

func TestFindInTokensOffsets(t *testing.T) {
	s := Extract(handLog(), handConfig)
	tokens := []string{"the", "global", "warming", "debate"}
	for _, m := range findInTokens(s, tokens) {
		if m.Start < 0 || m.End > len(tokens) || m.End <= m.Start {
			t.Fatalf("bad match offsets %+v", m)
		}
		if got := len(m.Unit.Terms); got != m.End-m.Start {
			t.Fatalf("span length mismatch: %+v", m)
		}
	}
}

func TestSubconceptCount(t *testing.T) {
	counts := addFiller(map[string]int{
		"new york city": 400, "new york": 600, "york city": 350,
		"new": 100, "york": 50, "city": 120,
	})
	s := Extract(querylog.FromCounts(counts), handConfig)
	// Subconcepts of "new york city" of length 2: "new york", "york city".
	got := s.SubconceptCountTerms(strings.Fields("new york city"), 0.0)
	if got != 2 {
		t.Fatalf("SubconceptCount = %d, want 2", got)
	}
	if got := s.SubconceptCountTerms(strings.Fields("new york"), 0.0); got != 0 {
		t.Fatalf("two-term phrase has no proper multi-term subconcepts, got %d", got)
	}
}

func TestEmptyLog(t *testing.T) {
	s := Extract(querylog.FromCounts(nil), Config{})
	if len(s.units) != 0 {
		t.Fatalf("empty log produced %d units", len(s.units))
	}
	if got := findInTokens(s, []string{"a", "b"}); got != nil {
		t.Fatalf("FindInIDs on empty set = %v", got)
	}
}

// TestMatcherSharesLogVocab: the unit matcher is compiled over the query
// log's vocabulary, and compiling it interns nothing there — every unit
// term is a log term.
func TestMatcherSharesLogVocab(t *testing.T) {
	for _, l := range []*querylog.Log{handLog(), querylog.FromCounts(nil)} {
		n := l.Vocab().Len()
		s := Extract(l, handConfig)
		if s.Vocab() != l.Vocab() {
			t.Fatal("Set.Vocab() is not the query log's vocabulary")
		}
		if got := l.Vocab().Len(); got != n {
			t.Fatalf("Extract grew the log vocabulary from %d to %d terms", n, got)
		}
	}
}

// Against the generated world: most multi-term concept names should be
// recovered as units, because the log contains their exact queries with
// high frequency.
func TestExtractRecoversWorldConcepts(t *testing.T) {
	w := world.New(world.Config{Seed: 21, VocabSize: 1200, NumTopics: 8, NumConcepts: 200})
	l := querylog.Generate(w, querylog.Config{Seed: 22})
	s := Extract(l, Config{})
	var total, recovered int
	for i := range w.Concepts {
		c := &w.Concepts[i]
		if len(c.Terms) < 2 || c.Interest < 0.3 {
			continue // tail concepts may legitimately be below support
		}
		total++
		if s.units[c.Name] != nil {
			recovered++
		}
	}
	if total == 0 {
		t.Skip("no popular multi-term concepts in test world")
	}
	if ratio := float64(recovered) / float64(total); ratio < 0.7 {
		t.Fatalf("only %d/%d (%.0f%%) popular multi-term concepts recovered as units", recovered, total, 100*ratio)
	}
}

func TestDeterministicExtraction(t *testing.T) {
	l := handLog()
	s1 := Extract(l, handConfig)
	s2 := Extract(l, handConfig)
	if !reflect.DeepEqual(s1.units, s2.units) {
		t.Fatal("extraction not deterministic")
	}
}

func BenchmarkExtract(b *testing.B) {
	w := world.New(world.Config{Seed: 21, VocabSize: 1200, NumTopics: 8, NumConcepts: 200})
	l := querylog.Generate(w, querylog.Config{Seed: 22})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Extract(l, Config{})
	}
}

func TestFourTermUnits(t *testing.T) {
	counts := addFiller(map[string]int{
		"a b c d": 300, "a b c": 350, "b c d": 320, "a b": 400, "b c": 380,
		"c d": 360, "a": 80, "b": 70, "c": 60, "d": 50,
	})
	s := Extract(querylog.FromCounts(counts), Config{MinMI: 0.5, MaxLen: 4})
	u := s.units["a b c d"]
	if u == nil {
		t.Fatal("4-term unit not validated with MaxLen 4")
	}
	if len(u.Terms) != 4 {
		t.Fatalf("Terms = %v", u.Terms)
	}
	// Default MaxLen 3 must not produce it.
	s3 := Extract(querylog.FromCounts(counts), Config{MinMI: 0.5})
	if s3.units["a b c d"] != nil {
		t.Fatal("4-term unit appeared with MaxLen 3")
	}
}

// TestFindInIDsZeroAlloc guards the DESIGN.md §10 contract for the unit
// scanner: interning plus the trie walk allocate nothing per document.
func TestFindInIDsZeroAlloc(t *testing.T) {
	s := Extract(querylog.FromCounts(addFiller(map[string]int{
		"global warming": 500, "global": 200, "warming": 50,
	})), handConfig)
	tokens := []string{"the", "global", "warming", "debate", "unknownword"}
	ids := make([]uint32, 0, len(tokens))
	dst := make([]Match, 0, 4)
	allocs := testing.AllocsPerRun(100, func() {
		ids = s.Vocab().AppendIDs(ids[:0], tokens)
		dst = s.FindInIDs(ids, dst[:0])
	})
	if allocs != 0 {
		t.Fatalf("unit id match path allocated %.1f objects per run", allocs)
	}
	if len(dst) == 0 {
		t.Fatal("expected a unit match")
	}
}
