package detect

import (
	"strings"
	"testing"

	"contextrank/internal/querylog"
	"contextrank/internal/taxonomy"
	"contextrank/internal/textproc"
	"contextrank/internal/units"
	"contextrank/internal/world"
)

func testResources(t testing.TB) (*world.World, *taxonomy.Dictionary, *units.Set) {
	t.Helper()
	w := world.New(world.Config{Seed: 61, VocabSize: 1500, NumTopics: 8, NumConcepts: 250})
	dict := taxonomy.Build(w, 62)
	log := querylog.Generate(w, querylog.Config{Seed: 63})
	us := units.Extract(log, units.Config{})
	return w, dict, us
}

func TestDetectPatternsEmail(t *testing.T) {
	ds := detectPatterns("Contact uirmak@yahoo-inc.com or call 408-555-1234 now.")
	var types []string
	for _, d := range ds {
		types = append(types, d.PatternType)
	}
	joined := strings.Join(types, ",")
	if !strings.Contains(joined, "email") || !strings.Contains(joined, "phone") {
		t.Fatalf("pattern types = %v", types)
	}
}

func TestDetectPatternsURL(t *testing.T) {
	ds := detectPatterns("See http://svmlight.joachims.org and www.example.com/page.")
	urls := 0
	for _, d := range ds {
		if d.PatternType == "url" {
			urls++
			if strings.HasSuffix(d.Text, ".") {
				t.Fatalf("url kept trailing period: %q", d.Text)
			}
		}
	}
	if urls != 2 {
		t.Fatalf("found %d urls", urls)
	}
}

func TestDetectPatternsOffsets(t *testing.T) {
	text := "Write to a@b.com today."
	for _, d := range detectPatterns(text) {
		if text[d.Start:d.End] != d.Text {
			t.Fatalf("offset mismatch: %q vs %q", text[d.Start:d.End], d.Text)
		}
	}
}

func TestDetectNamedEntities(t *testing.T) {
	w, dict, us := testResources(t)
	p := New(dict, us)
	var c *world.Concept
	for i := range w.Concepts {
		if w.Concepts[i].Type != world.TypeNone && len(w.Concepts[i].Terms) == 2 {
			c = &w.Concepts[i]
			break
		}
	}
	if c == nil {
		t.Skip("no 2-term named entity")
	}
	text := "Reports about " + world.TitleCase(c.Name) + " surfaced yesterday."
	ds := p.Detect(text)
	found := false
	for _, d := range ds {
		if d.Norm == c.Name && d.Kind == KindNamed {
			found = true
			if d.Entry == nil || d.Entry.Type != c.Type {
				t.Fatalf("named detection missing/incorrect entry: %+v", d)
			}
			if text[d.Start:d.End] != d.Text {
				t.Fatal("offset mismatch")
			}
		}
	}
	if !found {
		t.Fatalf("entity %q not detected in %q: %+v", c.Name, text, ds)
	}
}

func TestDetectConcepts(t *testing.T) {
	w, dict, us := testResources(t)
	p := New(dict, us)
	var c *world.Concept
	for i := range w.Concepts {
		cc := &w.Concepts[i]
		if cc.Type == world.TypeNone && len(cc.Terms) >= 2 && us.Lookup(cc.Name) != nil {
			c = cc
			break
		}
	}
	if c == nil {
		t.Skip("no abstract unit concept")
	}
	text := "There was discussion of " + c.Name + " at the meeting."
	found := false
	for _, d := range p.Detect(text) {
		if d.Norm == c.Name && d.Kind == KindConcept {
			found = true
			if d.Unit == nil {
				t.Fatal("concept detection missing unit")
			}
		}
	}
	if !found {
		t.Fatalf("concept %q not detected", c.Name)
	}
}

func TestCollisionResolutionNoOverlaps(t *testing.T) {
	w, dict, us := testResources(t)
	p := New(dict, us)
	var b strings.Builder
	for i := 0; i < 30 && i < len(w.Concepts); i++ {
		b.WriteString(w.Concepts[i].Name)
		b.WriteString(" and then ")
	}
	ds := p.Detect(b.String())
	for i := 1; i < len(ds); i++ {
		if ds[i].Start < ds[i-1].End {
			t.Fatalf("overlapping detections: %+v and %+v", ds[i-1], ds[i])
		}
	}
}

func TestPatternBeatsOverlappingConcept(t *testing.T) {
	ds := resolveCollisions(new(scratch), nil, []Detection{
		{Norm: "example com", Kind: KindConcept, Start: 10, End: 21},
		{Norm: "www.example.com", Kind: KindPattern, PatternType: "url", Start: 6, End: 21},
	})
	if len(ds) != 1 || ds[0].Kind != KindPattern {
		t.Fatalf("pattern should win: %+v", ds)
	}
}

// TestEmailBeatsURLOverOneSpan pins the last key of the collision order: an
// email and a URL matched over one span ("www.a@b.com") tie on type, length,
// kind and start, and the email — emitted first — wins wherever the pair
// sits among the document's detections. While the order stopped at start the
// unstable sort chose, and one string came back as either type.
func TestEmailBeatsURLOverOneSpan(t *testing.T) {
	p := New(nil, nil)
	for _, n := range []int{1, 7, 40} {
		text := strings.Repeat("see www.a@b.com or http://x.y/z and ", n)
		found := 0
		for _, d := range p.Detect(text) {
			if d.Text != "www.a@b.com" {
				continue
			}
			found++
			if d.PatternType != "email" {
				t.Fatalf("%d repeats: occurrence %d at %d came back as %q", n, found, d.Start, d.PatternType)
			}
		}
		if found != n {
			t.Fatalf("%d repeats: %d occurrences detected", n, found)
		}
	}
}

func TestLongerSpanBeatsShorter(t *testing.T) {
	ds := resolveCollisions(new(scratch), nil, []Detection{
		{Norm: "york", Kind: KindNamed, Start: 4, End: 8},
		{Norm: "new york city", Kind: KindConcept, Start: 0, End: 13},
	})
	if len(ds) != 1 || ds[0].Norm != "new york city" {
		t.Fatalf("longer span should win: %+v", ds)
	}
}

func TestNamedBeatsConceptOnTie(t *testing.T) {
	ds := resolveCollisions(new(scratch), nil, []Detection{
		{Norm: "jaguar", Kind: KindConcept, Start: 0, End: 6},
		{Norm: "jaguar", Kind: KindNamed, Start: 0, End: 6},
	})
	if len(ds) != 1 || ds[0].Kind != KindNamed {
		t.Fatalf("named should win tie: %+v", ds)
	}
}

func TestFilterDropsStopwordConcepts(t *testing.T) {
	ds := filter([]Detection{
		{Norm: "the other", Kind: KindConcept, Start: 0, End: 9},
		{Norm: "of the", Kind: KindConcept, Start: 10, End: 16},
		{Norm: "a", Kind: KindConcept, Start: 20, End: 21},
	})
	for _, d := range ds {
		if d.Norm == "of the" || d.Norm == "a" {
			t.Fatalf("filter kept %q", d.Norm)
		}
	}
	// "the other" contains only stopwords too -> dropped.
	for _, d := range ds {
		if d.Norm == "the other" {
			t.Fatalf("pure stopword phrase kept")
		}
	}
}

func TestDetectHTML(t *testing.T) {
	_, dict, us := testResources(t)
	p := New(dict, us)
	text := textproc.StripHTML(`<p>Email <a href="#">a@b.com</a> now</p>`)
	ds := p.Detect(text)
	if !strings.Contains(text, "a@b.com") {
		t.Fatalf("stripped text lost email: %q", text)
	}
	found := false
	for _, d := range ds {
		if d.PatternType == "email" {
			found = true
			if text[d.Start:d.End] != d.Text {
				t.Fatal("offsets must refer to stripped text")
			}
		}
	}
	if !found {
		t.Fatal("email not detected in HTML")
	}
}

func TestDetectNilResources(t *testing.T) {
	p := New(nil, nil)
	ds := p.Detect("Only a@b.com here.")
	if len(ds) != 1 || ds[0].Kind != KindPattern {
		t.Fatalf("pattern-only pipeline = %+v", ds)
	}
}

func TestDetectDeterministic(t *testing.T) {
	w, dict, us := testResources(t)
	p := New(dict, us)
	text := "News about " + w.Concepts[10].Name + " and " + w.Concepts[20].Name + "."
	d1 := p.Detect(text)
	d2 := p.Detect(text)
	if len(d1) != len(d2) {
		t.Fatal("nondeterministic detection count")
	}
	for i := range d1 {
		if d1[i].Norm != d2[i].Norm || d1[i].Start != d2[i].Start {
			t.Fatal("nondeterministic detection")
		}
	}
}

// benchText is 40 sentences naming concepts. With extra, each sentence is
// followed by one more; BenchmarkDetectPatternRich uses that for a sentence
// with an email, a URL, a phone number and a year, or the same words
// without the punctuation that makes them patterns.
func benchText(w *world.World, extra string) string {
	var sb strings.Builder
	for i := 0; i < 40; i++ {
		sb.WriteString("The story discussed ")
		sb.WriteString(w.Concepts[i%len(w.Concepts)].Name)
		sb.WriteString(" in detail.")
		sb.WriteString(extra)
		sb.WriteByte(' ')
	}
	return sb.String()
}

func benchmarkDetect(b *testing.B, p *Pipeline, text string) {
	b.SetBytes(int64(len(text)))
	b.ReportAllocs()
	b.ResetTimer() // exclude resource building from ns/op and allocs/op
	for i := 0; i < b.N; i++ {
		p.Detect(text)
	}
}

func BenchmarkDetect(b *testing.B) {
	w, dict, us := testResources(b)
	benchmarkDetect(b, New(dict, us), benchText(w, ""))
}

// BenchmarkDetectPatternRich is BenchmarkDetect on a document that does
// carry patterns — 120 matches and a year in 40 sentences — beside the same
// text with one byte of each pattern changed so that it is none: the
// difference is what 120 trigger sites cost, whatever the document's length.
func BenchmarkDetectPatternRich(b *testing.B) {
	w, dict, us := testResources(b)
	p := New(dict, us)
	rich := benchText(w, " Mail desk@example.org or see http://news.example.org/a1 or call 408-555-1234 about 2008.")
	plain := benchText(w, " Mail desk#example.org or see http:/news.example.org/a1. or call 408-555-12a4 about 2008.")
	if n := len(appendPatternSites(nil, plain)); n != 0 || len(detectPatterns(rich)) != 120 || len(plain) != len(rich) {
		b.Fatalf("plain text: %d bytes, %d pattern sites; rich text: %d bytes, %d patterns", len(plain), n, len(rich), len(detectPatterns(rich)))
	}
	b.Run("patterns", func(b *testing.B) { benchmarkDetect(b, p, rich) })
	b.Run("plain", func(b *testing.B) { benchmarkDetect(b, p, plain) })
}

func TestZeroFloorAnnotatesEverything(t *testing.T) {
	w, dict, us := testResources(t)
	all := &Pipeline{dict: dict, units: us, minUnitScore: 0}
	floored := New(dict, us)
	// Ordinary topical vocabulary: every query term is formally a unit, so
	// a zero floor detects far more than the production floor.
	var b strings.Builder
	for i := 0; i < 25; i++ {
		b.WriteString(w.Vocab[i*7])
		b.WriteByte(' ')
	}
	text := b.String()
	got, want := len(all.Detect(text)), len(floored.Detect(text))
	if got <= want {
		t.Fatalf("floor 0 should detect more: %d vs %d", got, want)
	}
}
