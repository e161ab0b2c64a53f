package world

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"unicode"
	"unicode/utf8"
)

func testWorld(t testing.TB) *World {
	t.Helper()
	return New(Config{Seed: 42, VocabSize: 1200, NumTopics: 8, NumConcepts: 200})
}

func TestWorldDeterministic(t *testing.T) {
	w1 := New(Config{Seed: 7, VocabSize: 500, NumTopics: 4, NumConcepts: 60})
	w2 := New(Config{Seed: 7, VocabSize: 500, NumTopics: 4, NumConcepts: 60})
	if !reflect.DeepEqual(w1.Vocab, w2.Vocab) {
		t.Fatal("vocab not deterministic")
	}
	if !reflect.DeepEqual(w1.Concepts, w2.Concepts) {
		t.Fatal("concepts not deterministic")
	}
	w3 := New(Config{Seed: 8, VocabSize: 500, NumTopics: 4, NumConcepts: 60})
	if reflect.DeepEqual(w1.Vocab, w3.Vocab) {
		t.Fatal("different seeds produced identical vocab")
	}
}

// TestWorldValidate checks the invariants on the test world and on the
// world core's system tests build (Seed 1000 derives world seed 1001).
func TestWorldValidate(t *testing.T) {
	for _, w := range []*World{testWorld(t), New(Config{Seed: 1001, VocabSize: 2000, NumTopics: 10, NumConcepts: 300})} {
		if err := validate(w); err != nil {
			t.Fatal(err)
		}
	}
}

// validate is the world's consistency oracle: it returns an error describing
// the first violated invariant of a generated world.
func validate(w *World) error {
	if len(w.Vocab) < w.Config.VocabSize {
		return fmt.Errorf("vocab size %d < config %d", len(w.Vocab), w.Config.VocabSize)
	}
	seen := make(map[string]bool, len(w.Vocab))
	for _, v := range w.Vocab {
		if seen[v] {
			return fmt.Errorf("duplicate vocab word %q", v)
		}
		seen[v] = true
	}
	names := make(map[string]bool, len(w.Concepts))
	for i := range w.Concepts {
		c := &w.Concepts[i]
		if c.ID != i {
			return fmt.Errorf("concept %q has ID %d at index %d", c.Name, c.ID, i)
		}
		if names[c.Name] {
			return fmt.Errorf("duplicate concept name %q", c.Name)
		}
		names[c.Name] = true
		if c.Interest < 0 || c.Interest > 1 || c.Quality < 0 || c.Quality > 1 || c.Specificity < 0 || c.Specificity > 1 {
			return fmt.Errorf("concept %q has out-of-range latents", c.Name)
		}
		if c.Topic >= w.Config.NumTopics {
			return fmt.Errorf("concept %q has bad topic %d", c.Name, c.Topic)
		}
		if c.Topic >= 0 && len(c.ContextTerms) == 0 {
			return fmt.Errorf("topical concept %q has no context terms", c.Name)
		}
	}
	return nil
}

func TestWorldHasVariety(t *testing.T) {
	w := testWorld(t)
	var multi, named, lowq, ambiguous int
	for i := range w.Concepts {
		c := &w.Concepts[i]
		if len(c.Terms) > 1 {
			multi++
		}
		if c.Type != TypeNone {
			named++
		}
		if c.LowQuality() {
			lowq++
		}
		if c.Ambiguous() {
			ambiguous++
		}
	}
	if multi == 0 || named == 0 || lowq == 0 {
		t.Fatalf("missing variety: multi=%d named=%d lowq=%d", multi, named, lowq)
	}
	if named >= len(w.Concepts) {
		t.Fatal("all concepts are named entities; abstract concepts missing")
	}
}

func TestConceptByName(t *testing.T) {
	w := testWorld(t)
	c := &w.Concepts[len(w.Concepts)/2]
	if got := w.ConceptByName(c.Name); got != c {
		t.Fatalf("ConceptByName(%q) = %v", c.Name, got)
	}
	if got := w.ConceptByName("no such concept"); got != nil {
		t.Fatalf("expected nil for unknown, got %v", got)
	}
}

func TestLowQualityPhrasesPresent(t *testing.T) {
	w := testWorld(t)
	c := w.ConceptByName("my favorite")
	if c == nil {
		t.Fatal("'my favorite' missing")
	}
	if !c.LowQuality() || c.Topic != -1 {
		t.Fatalf("'my favorite' should be low quality and topicless: %+v", c)
	}
}

func TestSampleTermFromTopic(t *testing.T) {
	w := testWorld(t)
	rng := rand.New(rand.NewSource(1))
	topic := &w.Topics[0]
	valid := make(map[string]bool)
	for _, id := range topic.TermIDs {
		valid[w.Vocab[id]] = true
	}
	for i := 0; i < 500; i++ {
		term := w.SampleTerm(topic, rng)
		if !valid[term] {
			t.Fatalf("sampled term %q not in topic", term)
		}
	}
}

func TestEntityTypeString(t *testing.T) {
	if TypePerson.String() != "person" || TypeNone.String() != "none" {
		t.Fatal("EntityType.String broken")
	}
}

func TestTitleCase(t *testing.T) {
	if got := TitleCase("global warming"); got != "Global Warming" {
		t.Fatalf("TitleCase = %q", got)
	}
	if got := TitleCase(""); got != "" {
		t.Fatalf("TitleCase empty = %q", got)
	}
}

// TitleCase upper-cases each word's first rune: valid UTF-8 in gives valid
// UTF-8 out, an ASCII name gives the bytes of the byte-wise title-casing it
// always had, and a non-ASCII first rune comes back upper-cased, over
// random names drawn from ASCII, accented, Greek, Cyrillic and CJK runes
// and Unicode white space.
func TestTitleCaseByRune(t *testing.T) {
	if got := TitleCase("über alles"); got != "Über Alles" {
		t.Fatalf("TitleCase(über alles) = %q", got)
	}
	asciiTitle := func(name string) string {
		fields := strings.Fields(name)
		for i, f := range fields {
			fields[i] = strings.ToUpper(f[:1]) + f[1:]
		}
		return strings.Join(fields, " ")
	}
	alphabet := []rune("az AZ09-'\t\nçéüßǆσжї日\u2003\u00a0")
	rng := rand.New(rand.NewSource(1))
	for n := 0; n < 20000; n++ {
		name := make([]rune, rng.Intn(12))
		for i := range name {
			name[i] = alphabet[rng.Intn(len(alphabet))]
		}
		in := string(name)
		out := TitleCase(in)
		if !utf8.ValidString(out) {
			t.Fatalf("TitleCase(%q) = %q: invalid UTF-8", in, out)
		}
		inFields, outFields := strings.Fields(in), strings.Fields(out)
		if len(inFields) != len(outFields) {
			t.Fatalf("TitleCase(%q) = %q: %d words, want %d", in, out, len(outFields), len(inFields))
		}
		for i, f := range inFields {
			r, size := utf8.DecodeRuneInString(f)
			if want := string(unicode.ToUpper(r)) + f[size:]; outFields[i] != want {
				t.Fatalf("TitleCase(%q) word %d = %q, want %q", in, i, outFields[i], want)
			}
		}
		if ascii := strings.IndexFunc(in, func(r rune) bool { return r >= utf8.RuneSelf }) < 0; ascii && out != asciiTitle(in) {
			t.Fatalf("TitleCase(%q) = %q, the byte-wise form is %q", in, out, asciiTitle(in))
		}
	}
}

// oracleSearch is the draw's index by binary search, as SampleTermID found
// it before the guide table: the first term whose cumulative weight
// reaches x, clamped to the last.
func oracleSearch(tp *Topic, x float64) int {
	return min(sort.SearchFloat64s(tp.cum, x), len(tp.cum)-1)
}

// The guide table returns exactly the binary search's index: for every
// topic of a small and a paper-scale world, at every cutpoint, every
// cumulative weight and the floats either side of each, at 0, the largest
// float below the total and the total, and over 10^6 draws a world; and
// on topics built so that a cumulative weight sits one float below a
// cutpoint whose bucket that float rounds into, where the search must
// step back from the cutpoint's entry.
func TestSampleTermIDMatchesBinarySearch(t *testing.T) {
	stepsBack := 0
	for total := 1.0; total <= 100; total++ {
		for n := 2; n <= 9; n++ {
			scale := float64(n) / total
			for j := 1; j < n; j++ {
				lo := float64(j) / scale
				x := math.Nextafter(lo, 0)
				if int(x*scale) < j {
					continue
				}
				tp := &Topic{cum: make([]float64, n)}
				for i := range tp.cum {
					tp.cum[i] = total * float64(i+1) / float64(n)
				}
				tp.cum[j-1], tp.cum[n-1] = x, total
				tp.buildGuide()
				for _, x := range []float64{x, lo, math.Nextafter(lo, total)} {
					if got, want := tp.search(x), oracleSearch(tp, x); got != want {
						t.Fatalf("total %v, %d terms: search(%v) = %d, binary search %d", total, n, x, got, want)
					}
				}
				stepsBack++
			}
		}
	}
	if stepsBack == 0 {
		t.Fatal("no topic puts a weight one float below a cutpoint it rounds into")
	}

	worlds := []*World{testWorld(t), New(Config{Seed: 71, VocabSize: 6000, NumTopics: 24, NumConcepts: 1200})}
	for wi, w := range worlds {
		for ti := range w.Topics {
			tp := &w.Topics[ti]
			total := tp.cum[len(tp.cum)-1]
			xs := []float64{0, math.Nextafter(total, 0), total}
			edges := append([]float64(nil), tp.cum...)
			for j := range tp.guide {
				edges = append(edges, float64(j)/tp.scale)
			}
			for _, e := range edges {
				xs = append(xs, e, math.Nextafter(e, 0), math.Nextafter(e, total))
			}
			for _, x := range xs {
				if got, want := tp.search(x), oracleSearch(tp, x); got != want {
					t.Fatalf("world %d topic %d: search(%v) = %d, binary search %d", wi, ti, x, got, want)
				}
			}
		}
		a, b := rand.New(rand.NewSource(int64(wi))), rand.New(rand.NewSource(int64(wi)))
		for d := 0; d < 1_000_000; d++ {
			tp := &w.Topics[d%len(w.Topics)]
			got := w.SampleTermID(tp, a)
			x := b.Float64() * tp.cum[len(tp.cum)-1]
			if want := tp.TermIDs[oracleSearch(tp, x)]; got != want {
				t.Fatalf("world %d draw %d (topic %d, x %v): term %d, binary search %d", wi, d, tp.ID, x, got, want)
			}
		}
	}
}

// The text sink title-cases a mention's name into its buffer in place; that
// must be TitleCase for every concept name of two worlds, and for names
// with runs of spaces, tabs, leading lower-case-free words and non-ASCII.
func TestAppendTitleMatchesTitleCase(t *testing.T) {
	names := []string{"", " ", "a", "global  warming", "\tnew york\n", "3d printer", "Obama", "café society", "über alles"}
	for _, seed := range []int64{42, 7} {
		w := New(Config{Seed: seed, VocabSize: 1200, NumTopics: 8, NumConcepts: 300})
		for i := range w.Concepts {
			names = append(names, w.Concepts[i].Name)
		}
	}
	prefix := []byte("Then ")
	for _, name := range names {
		got := appendTitle(append([]byte(nil), prefix...), name)
		if want := string(prefix) + TitleCase(name); string(got) != want {
			t.Fatalf("appendTitle(%q) = %q, want %q", name, got, want)
		}
	}
}

func TestComposeDocEmbedsMentions(t *testing.T) {
	w := testWorld(t)
	rng := rand.New(rand.NewSource(3))
	var c *Concept
	for i := range w.Concepts {
		if w.Concepts[i].Topic >= 0 && len(w.Concepts[i].Terms) == 2 {
			c = &w.Concepts[i]
			break
		}
	}
	if c == nil {
		t.Skip("no two-term topical concept")
	}
	doc, _ := w.ComposeDoc(ComposeOptions{Topic: c.Topic}, []Mention{{Concept: c, Relevant: true, Repeat: 2}}, rng)
	lower := strings.ToLower(doc)
	if strings.Count(lower, c.Name) < 2 {
		t.Fatalf("document should mention %q twice:\n%s", c.Name, doc)
	}
	if !strings.Contains(doc, ".") {
		t.Fatal("document should contain sentences")
	}
}

func TestComposeDocRelevantMentionsCarryContextTerms(t *testing.T) {
	w := testWorld(t)
	rng := rand.New(rand.NewSource(4))
	var c *Concept
	for i := range w.Concepts {
		cc := &w.Concepts[i]
		if cc.Topic >= 0 && cc.Specificity > 0.7 {
			c = cc
			break
		}
	}
	if c == nil {
		t.Skip("no specific concept found")
	}
	ctx := make(map[string]bool)
	for _, term := range c.ContextTerms {
		ctx[term] = true
	}
	// Compose many relevant docs in a *different* topic so context terms can
	// only come from the mention machinery, then check they show up.
	otherTopic := (c.Topic + 1) % len(w.Topics)
	hits := 0
	for i := 0; i < 10; i++ {
		doc, _ := w.ComposeDoc(ComposeOptions{Topic: otherTopic}, []Mention{{Concept: c, Relevant: true}}, rng)
		for _, word := range strings.Fields(strings.ToLower(doc)) {
			word = strings.Trim(word, ".")
			if ctx[word] {
				hits++
			}
		}
	}
	if hits == 0 {
		t.Fatal("relevant mentions never pulled in context terms")
	}
}

func TestComposeDocDeterministic(t *testing.T) {
	w := testWorld(t)
	c := &w.Concepts[20]
	d1, _ := w.ComposeDoc(ComposeOptions{Topic: 1}, []Mention{{Concept: c}}, rand.New(rand.NewSource(9)))
	d2, _ := w.ComposeDoc(ComposeOptions{Topic: 1}, []Mention{{Concept: c}}, rand.New(rand.NewSource(9)))
	if d1 != d2 {
		t.Fatal("ComposeDoc not deterministic for same rng seed")
	}
}

func TestClamp01(t *testing.T) {
	if clamp01(-1) != 0 || clamp01(2) != 1 || clamp01(0.5) != 0.5 {
		t.Fatal("clamp01 broken")
	}
}

func BenchmarkComposeDoc(b *testing.B) {
	w := New(Config{Seed: 42, VocabSize: 1200, NumTopics: 8, NumConcepts: 200})
	rng := rand.New(rand.NewSource(1))
	c := &w.Concepts[50]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.ComposeDoc(ComposeOptions{Topic: 2}, []Mention{{Concept: c, Relevant: true}}, rng)
	}
}
