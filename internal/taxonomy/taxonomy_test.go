package taxonomy

import (
	"strings"
	"testing"

	"contextrank/internal/world"
)

func testDict(t testing.TB) (*world.World, *Dictionary) {
	t.Helper()
	w := world.New(world.Config{Seed: 51, VocabSize: 1200, NumTopics: 8, NumConcepts: 300, AmbiguousFraction: 0.2})
	return w, Build(w, 52)
}

func TestBuildCoversTypedConcepts(t *testing.T) {
	w, d := testDict(t)
	typed := 0
	for i := range w.Concepts {
		c := &w.Concepts[i]
		if c.Type == world.TypeNone {
			if d.entries[c.Name] != nil && !c.Ambiguous() {
				t.Errorf("abstract concept %q in dictionary", c.Name)
			}
			continue
		}
		typed++
		es := d.entries[c.Name]
		if len(es) == 0 {
			t.Errorf("typed concept %q missing from dictionary", c.Name)
			continue
		}
		if es[0].Type != c.Type {
			t.Errorf("type mismatch for %q: %v vs %v", c.Name, es[0].Type, c.Type)
		}
		if es[0].Subtype == "" {
			t.Errorf("empty subtype for %q", c.Name)
		}
	}
	if typed == 0 {
		t.Fatal("no typed concepts in world")
	}
	if len(d.entries) == 0 {
		t.Fatal("empty dictionary")
	}
}

func TestPlacesHaveGeo(t *testing.T) {
	w, d := testDict(t)
	checked := 0
	for i := range w.Concepts {
		c := &w.Concepts[i]
		if c.Type != world.TypePlace {
			continue
		}
		es := d.entries[c.Name]
		if len(es) == 0 {
			continue
		}
		if es[0].Geo == nil {
			t.Fatalf("place %q has no geo metadata", c.Name)
		}
		g := es[0].Geo
		if g.Lon < -180 || g.Lon > 180 || g.Lat < -90 || g.Lat > 90 {
			t.Fatalf("place %q geo out of range: %+v", c.Name, g)
		}
		checked++
	}
	if checked == 0 {
		t.Skip("no places in test world")
	}
}

func TestAmbiguousEntries(t *testing.T) {
	w, d := testDict(t)
	found := false
	for i := range w.Concepts {
		c := &w.Concepts[i]
		if c.Type != world.TypeNone && c.Ambiguous() {
			es := d.entries[c.Name]
			if len(es) < 2 {
				t.Fatalf("ambiguous %q has %d entries", c.Name, len(es))
			}
			if es[0].Type == es[1].Type {
				t.Fatalf("ambiguous %q entries share type", c.Name)
			}
			found = true
			break
		}
	}
	if !found {
		t.Skip("no ambiguous typed concept")
	}
}

func TestHighLevelType(t *testing.T) {
	_, d := testDict(t)
	if got := d.HighLevelType("not in dictionary"); got != world.TypeNone {
		t.Fatalf("missing phrase type = %v", got)
	}
}

func TestFindInTokens(t *testing.T) {
	w, d := testDict(t)
	var c *world.Concept
	for i := range w.Concepts {
		if w.Concepts[i].Type != world.TypeNone && len(w.Concepts[i].Terms) == 2 {
			c = &w.Concepts[i]
			break
		}
	}
	if c == nil {
		t.Skip("no two-term entity")
	}
	tokens := append([]string{"intro", "words"}, c.Terms...)
	tokens = append(tokens, "trailing")
	ms := findInTokens(d, tokens)
	found := false
	for _, m := range ms {
		if m.Phrase == c.Name && m.Start == 2 && m.End == 4 {
			found = true
		}
	}
	if !found {
		t.Fatalf("entity %q not found in tokens: %v", c.Name, ms)
	}
}

func TestFindInTokensGreedyLongest(t *testing.T) {
	d := &Dictionary{entries: map[string][]Entry{}}
	d.add(Entry{Phrase: "new york", Type: world.TypePlace})
	d.add(Entry{Phrase: "new york city", Type: world.TypePlace})
	d.buildIndex()
	ms := findInTokens(d, []string{"new", "york", "city"})
	if len(ms) == 0 || ms[0].Phrase != "new york city" {
		t.Fatalf("expected longest match first: %v", ms)
	}
}

func TestDisambiguateByContext(t *testing.T) {
	d := &Dictionary{entries: map[string][]Entry{}}
	d.add(Entry{Phrase: "jaguar", Type: world.TypeAnimal, Subtype: "mammal"})
	d.add(Entry{Phrase: "jaguar", Type: world.TypeProduct, Subtype: "vehicle"})
	d.add(Entry{Phrase: "rainforest", Type: world.TypeAnimal, Subtype: "mammal"})
	d.add(Entry{Phrase: "sedan", Type: world.TypeProduct, Subtype: "vehicle"})
	d.buildIndex()

	m := findInTokens(d, []string{"jaguar"})[0]
	animalCtx := []string{"the", "jaguar", "prowled", "the", "rainforest"}
	if got := disambiguate(d, m, animalCtx); got.Type != world.TypeAnimal {
		t.Fatalf("animal context chose %v", got.Type)
	}
	carCtx := []string{"the", "jaguar", "sedan", "accelerated"}
	if got := disambiguate(d, m, carCtx); got.Type != world.TypeProduct {
		t.Fatalf("car context chose %v", got.Type)
	}
	// No signal: first entry wins.
	if got := disambiguate(d, m, []string{"nothing", "useful"}); got.Type != m.Entries[0].Type {
		t.Fatalf("tie should keep primary entry, got %v", got.Type)
	}
}

func TestDisambiguateUnambiguous(t *testing.T) {
	_, d := testDict(t)
	for phrase, es := range map[string][]Entry{} {
		_ = phrase
		_ = es
	}
	m := Match{Phrase: "x", Entries: []Entry{{Phrase: "x", Type: world.TypePerson}}}
	if got := disambiguate(d, m, nil); got.Type != world.TypePerson {
		t.Fatal("single entry must pass through")
	}
}

func TestMatchSpans(t *testing.T) {
	w, d := testDict(t)
	tokens := strings.Fields("alpha beta gamma delta")
	for i := range w.Concepts {
		c := &w.Concepts[i]
		if c.Type != world.TypeNone {
			tokens = append(tokens, c.Terms...)
		}
		if len(tokens) > 200 {
			break
		}
	}
	for _, m := range findInTokens(d, tokens) {
		if m.Start < 0 || m.End > len(tokens) || m.End <= m.Start {
			t.Fatalf("bad span %+v", m)
		}
		got := strings.Join(tokens[m.Start:m.End], " ")
		if got != m.Phrase {
			t.Fatalf("span %q != phrase %q", got, m.Phrase)
		}
	}
}

// TestFindInIDsZeroAlloc guards the DESIGN.md §10 contract: phrase terms
// are split once at buildIndex time, and the match path (interning, trie
// walk, disambiguation) never re-splits a phrase or allocates per probe.
func TestFindInIDsZeroAlloc(t *testing.T) {
	d := &Dictionary{entries: map[string][]Entry{}}
	d.add(Entry{Phrase: "new york city", Type: world.TypePlace})
	d.add(Entry{Phrase: "new york", Type: world.TypePlace})
	d.add(Entry{Phrase: "jaguar", Type: world.TypeAnimal})
	d.add(Entry{Phrase: "jaguar", Type: world.TypeProduct})
	d.buildIndex()

	tokens := strings.Fields("the jaguar left new york city for new york again")
	ids := make([]uint32, 0, len(tokens))
	dst := make([]Match, 0, 8)
	allocs := testing.AllocsPerRun(100, func() {
		ids = d.Vocab().AppendIDs(ids[:0], tokens)
		dst = d.FindInIDs(ids, dst[:0])
		for _, m := range dst {
			d.DisambiguateIDs(m, ids)
		}
	})
	if allocs != 0 {
		t.Fatalf("id match path allocated %.1f objects per run", allocs)
	}
	if len(dst) == 0 {
		t.Fatal("expected matches")
	}
}
