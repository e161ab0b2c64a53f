// Package annotate renders the user-facing half of Contextual Shortcuts:
// detected entities become "intelligent hyperlinks (shortcuts)" in the
// document HTML, and "clicking on a Shortcut results in a small overlay
// window appearing next to the detected entity, which shows content
// relevant to that entity, e.g. a map for a place or address, or news/web
// search results for a person" (paper §II).
//
// The renderer is decoupled from content resolution through the
// ContentProvider interface; the default provider resolves overlays from
// the same substrates the detection pipeline uses (search engine,
// suggestions, Wikipedia, geo data-packs).
package annotate

import (
	"fmt"
	"html"
	"sort"
	"strconv"
	"strings"

	"contextrank/internal/detect"
	"contextrank/internal/framework"
	"contextrank/internal/world"
)

// Overlay is the content shown when a shortcut is clicked.
type Overlay struct {
	// Title heads the overlay window.
	Title string
	// Kind tags the overlay template ("map", "search", "related",
	// "article", "contact").
	Kind string
	// Lines are the overlay body lines (search snippets, related queries,
	// coordinates, ...).
	Lines []string
}

// ContentProvider resolves the overlay for one detection.
type ContentProvider interface {
	Overlay(d detect.Detection) Overlay
}

// Renderer produces annotated HTML.
type Renderer struct {
	Provider ContentProvider
	// MaxOverlayLines truncates overlay bodies. Default 4.
	MaxOverlayLines int
}

// NewRenderer wraps a content provider.
func NewRenderer(p ContentProvider) *Renderer {
	return &Renderer{Provider: p, MaxOverlayLines: 4}
}

// Render returns the document as HTML with each annotation wrapped in a
// shortcut span carrying its overlay. Annotations must carry offsets into
// text (as produced by the runtime); overlapping or out-of-range
// annotations are skipped defensively.
func (r *Renderer) Render(text string, anns []framework.Annotation) string {
	sorted := make([]framework.Annotation, len(anns))
	copy(sorted, anns)
	sort.SliceStable(sorted, func(i, j int) bool {
		return sorted[i].Detection.Start < sorted[j].Detection.Start
	})

	var b strings.Builder
	b.Grow(len(text) + 64*len(sorted))
	pos := 0
	for _, a := range sorted {
		d := a.Detection
		if d.Start < pos || d.End > len(text) || d.End <= d.Start {
			continue // overlapping or invalid span
		}
		b.WriteString(html.EscapeString(text[pos:d.Start]))
		r.renderShortcut(&b, text[d.Start:d.End], a)
		pos = d.End
	}
	b.WriteString(html.EscapeString(text[pos:]))
	return b.String()
}

func (r *Renderer) renderShortcut(b *strings.Builder, surface string, a framework.Annotation) {
	d := a.Detection
	class := "shortcut shortcut-" + d.Kind.String()
	if d.Kind == detect.KindNamed && d.Entry != nil {
		class += " shortcut-" + d.Entry.Type.String()
	}
	openShortcut(b, class, d.Norm, a.Score)
	b.WriteString(html.EscapeString(surface))
	if r.Provider != nil {
		overlay := r.Provider.Overlay(d)
		lines := overlay.Lines
		if r.MaxOverlayLines > 0 && len(lines) > r.MaxOverlayLines {
			lines = lines[:r.MaxOverlayLines]
		}
		b.WriteString(`<span class="overlay overlay-`)
		b.WriteString(html.EscapeString(overlay.Kind))
		b.WriteString(`"><strong>`)
		b.WriteString(html.EscapeString(overlay.Title))
		b.WriteString(`</strong>`)
		for _, line := range lines {
			b.WriteString(`<em>`)
			b.WriteString(html.EscapeString(line))
			b.WriteString(`</em>`)
		}
		b.WriteString(`</span>`)
	}
	b.WriteString(`</span>`)
}

// openShortcut writes a shortcut span's opening tag: the class and the
// escaped concept quoted as fmt's %q quotes them, the score formatted as
// %.3f formats it.
func openShortcut(b *strings.Builder, class, norm string, score float64) {
	var buf [128]byte
	tag := append(buf[:0], `<span class=`...)
	tag = strconv.AppendQuote(tag, class)
	tag = append(tag, ` data-concept=`...)
	tag = strconv.AppendQuote(tag, html.EscapeString(norm))
	tag = append(tag, ` data-score="`...)
	tag = strconv.AppendFloat(tag, score, 'f', 3, 64)
	tag = append(tag, `">`...)
	b.Write(tag)
}

// DefaultProvider resolves overlays from the platform's substrates, per the
// paper's per-type examples. The function fields decouple it from concrete
// substrate types; nil fields disable that content source.
type DefaultProvider struct {
	// Snippets returns top-k search result snippets for a phrase
	// (searchsim.Engine.Snippets).
	Snippets func(phrase string, k int) []string
	// Related returns up to max related query strings
	// (wrap searchsim.Suggestor.Suggest).
	Related func(query string, max int) []string
	// ArticleWords returns the encyclopedia article length, 0 if absent
	// (wiki.Encyclopedia.WordCount).
	ArticleWords func(concept string) int
}

// Overlay implements ContentProvider.
func (p *DefaultProvider) Overlay(d detect.Detection) Overlay {
	switch d.Kind {
	case detect.KindPattern:
		return patternOverlay(d)
	case detect.KindNamed:
		return p.namedOverlay(d)
	default:
		return p.conceptOverlay(d)
	}
}

func patternOverlay(d detect.Detection) Overlay {
	switch d.PatternType {
	case "email":
		return Overlay{Title: "Send email", Kind: "contact", Lines: []string{"mailto:" + d.Norm}}
	case "phone":
		return Overlay{Title: "Call", Kind: "contact", Lines: []string{"tel:" + d.Norm}}
	default:
		return Overlay{Title: "Open link", Kind: "contact", Lines: []string{d.Norm}}
	}
}

func (p *DefaultProvider) namedOverlay(d detect.Detection) Overlay {
	// Places with geo metadata get a map, the paper's flagship example.
	if d.Entry != nil && d.Entry.Type == world.TypePlace && d.Entry.Geo != nil {
		return Overlay{
			Title: "Map of " + d.Norm,
			Kind:  "map",
			Lines: []string{fmt.Sprintf("lat %.3f, lon %.3f", d.Entry.Geo.Lat, d.Entry.Geo.Lon)},
		}
	}
	// Other named entities get news/web search results.
	o := Overlay{Title: "Search results for " + d.Norm, Kind: "search"}
	if p.Snippets != nil {
		o.Lines = p.Snippets(d.Norm, 3)
	}
	if p.ArticleWords != nil {
		if wc := p.ArticleWords(d.Norm); wc > 0 {
			o.Lines = append(o.Lines, fmt.Sprintf("encyclopedia article (%d words)", wc))
		}
	}
	return o
}

func (p *DefaultProvider) conceptOverlay(d detect.Detection) Overlay {
	o := Overlay{Title: "Related to " + d.Norm, Kind: "related"}
	if p.Related != nil {
		o.Lines = p.Related(d.Norm, 3)
	}
	if len(o.Lines) == 0 && p.Snippets != nil {
		o.Kind = "search"
		o.Lines = p.Snippets(d.Norm, 2)
	}
	return o
}
