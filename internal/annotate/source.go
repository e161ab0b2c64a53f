package annotate

import (
	"sort"
	"strings"

	"contextrank/internal/framework"
	"contextrank/internal/textproc"
)

// RenderSource annotates the ORIGINAL HTML document: annotations carry
// offsets into the stripped text (res.Text), and the offset map projects
// them back onto the markup, so the publisher's page keeps its layout and
// only gains shortcut spans — exactly how Contextual Shortcuts integrates
// with Yahoo! properties.
//
// Spans whose source slice crosses markup (a phrase split by tags, e.g.
// "Iraq</b> <i>war") are skipped: wrapping them would produce invalid
// nesting. Overlapping spans keep the first.
func (r *Renderer) RenderSource(src string, res *textproc.StripResult, anns []framework.Annotation) string {
	type span struct {
		lo, hi int
		a      framework.Annotation
	}
	var spans []span
	for _, a := range anns {
		d := a.Detection
		if d.Start < 0 || d.End > len(res.Text) || d.End <= d.Start {
			continue
		}
		lo, hi := res.SourceSpan(d.Start, d.End)
		if lo < 0 || hi > len(src) || hi <= lo {
			continue
		}
		if strings.ContainsAny(src[lo:hi], "<>") {
			continue // crosses markup; wrapping would break nesting
		}
		spans = append(spans, span{lo: lo, hi: hi, a: a})
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].lo < spans[j].lo })

	var b strings.Builder
	b.Grow(len(src) + 64*len(spans))
	pos := 0
	for _, s := range spans {
		if s.lo < pos {
			continue // overlap: keep the earlier annotation
		}
		b.WriteString(src[pos:s.lo])
		d := s.a.Detection
		class := "shortcut shortcut-" + d.Kind.String()
		openShortcut(&b, class, d.Norm, s.a.Score)
		b.WriteString(src[s.lo:s.hi])
		b.WriteString(`</span>`)
		pos = s.hi
	}
	b.WriteString(src[pos:])
	return b.String()
}
