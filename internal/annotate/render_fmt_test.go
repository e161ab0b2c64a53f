package annotate

import (
	"fmt"
	"html"
	"math"
	"slices"
	"sort"
	"strings"
	"testing"

	"contextrank/internal/core"
	"contextrank/internal/detect"
	"contextrank/internal/framework"
	"contextrank/internal/newsgen"
	"contextrank/internal/ranksvm"
	"contextrank/internal/relevance"
	"contextrank/internal/searchsim"
	"contextrank/internal/world"
)

// renderFmt is Render with each shortcut span written through fmt, the
// form the strconv writer replaced: the oracle TestRenderMatchesFmtForm
// holds Render to byte for byte.
func renderFmt(r *Renderer, text string, anns []framework.Annotation) string {
	sorted := slices.Clone(anns)
	sort.SliceStable(sorted, func(i, j int) bool {
		return sorted[i].Detection.Start < sorted[j].Detection.Start
	})
	var b strings.Builder
	pos := 0
	for _, a := range sorted {
		d := a.Detection
		if d.Start < pos || d.End > len(text) || d.End <= d.Start {
			continue
		}
		b.WriteString(html.EscapeString(text[pos:d.Start]))
		class := "shortcut shortcut-" + d.Kind.String()
		if d.Kind == detect.KindNamed && d.Entry != nil {
			class += " shortcut-" + d.Entry.Type.String()
		}
		fmt.Fprintf(&b, `<span class=%q data-concept=%q data-score="%.3f">`,
			class, html.EscapeString(d.Norm), a.Score)
		b.WriteString(html.EscapeString(text[d.Start:d.End]))
		if r.Provider != nil {
			overlay := r.Provider.Overlay(d)
			lines := overlay.Lines
			if r.MaxOverlayLines > 0 && len(lines) > r.MaxOverlayLines {
				lines = lines[:r.MaxOverlayLines]
			}
			fmt.Fprintf(&b, `<span class="overlay overlay-%s"><strong>%s</strong>`,
				html.EscapeString(overlay.Kind), html.EscapeString(overlay.Title))
			for _, line := range lines {
				fmt.Fprintf(&b, `<em>%s</em>`, html.EscapeString(line))
			}
			b.WriteString(`</span>`)
		}
		b.WriteString(`</span>`)
		pos = d.End
	}
	b.WriteString(html.EscapeString(text[pos:]))
	return b.String()
}

// TestRenderMatchesFmtForm renders 500 feed stories, every annotation of
// each with its overlay from a built system's search engine, suggestions
// and encyclopedia, and requires Render's bytes to equal the fmt form's;
// then the same for hand spans whose concepts need quoting escapes and
// whose scores are rounding edges, signed zeros and non-finite values.
func TestRenderMatchesFmtForm(t *testing.T) {
	s := core.Build(core.Config{
		Seed:   42,
		World:  world.Config{VocabSize: 2000, NumTopics: 10, NumConcepts: 300},
		Corpus: searchsim.CorpusConfig{MaxDocsPerConcept: 18},
		News:   newsgen.Config{NumStories: 250},
	})
	learned := &core.LearnedMethod{UseRelevance: true, Resource: relevance.Snippets, Options: ranksvm.Options{Seed: 42}}
	if err := learned.Fit(s.Dataset([]relevance.Resource{relevance.Snippets})); err != nil {
		t.Fatal(err)
	}
	rt := s.RuntimeTables().Runtime(learned.Model())
	suggestor := searchsim.NewSuggestor(s.Log)
	r := NewRenderer(&DefaultProvider{
		Snippets: s.Engine.Snippets,
		Related: func(q string, max int) []string {
			var out []string
			for _, sg := range suggestor.Suggest(q, max) {
				out = append(out, sg.Text)
			}
			return out
		},
		ArticleWords: s.Wiki.WordCount,
	})
	feed := newsgen.NewFeed(s.World, newsgen.Config{Seed: 9}, 64)
	stories, spans := 0, 0
	for stories < 500 {
		for _, st := range feed.NextBatch() {
			if stories == 500 {
				break
			}
			stories++
			anns := rt.Annotate(st.Text, -1)
			spans += len(anns)
			if got, want := r.Render(st.Text, anns), renderFmt(r, st.Text, anns); got != want {
				t.Fatalf("story %d: Render differs from the fmt form\n got %s\nwant %s", st.ID, got, want)
			}
		}
	}
	if spans < 500 {
		t.Fatalf("500 stories gave %d annotations: too few to compare the forms", spans)
	}

	text := "one two three four five six seven eight"
	norms := []string{`a"b`, `back\slash`, "tab\there", "ctl\x01", "café", "bad\xffutf8", "<tag>&amp;", " "}
	scores := []float64{0, math.Copysign(0, -1), 0.0005, 0.0015, -0.0004, 1.2345, 2.5e-4, 1e21, -7.9999, math.Inf(1), math.Inf(-1), math.NaN()}
	plain := NewRenderer(nil)
	for i, norm := range norms {
		for _, score := range scores {
			anns := []framework.Annotation{ann("two", norm, detect.Kind(i%3), 4, score)}
			if got, want := plain.Render(text, anns), renderFmt(plain, text, anns); got != want {
				t.Fatalf("norm %q, score %v: Render = %s, fmt form %s", norm, score, got, want)
			}
		}
	}
}
