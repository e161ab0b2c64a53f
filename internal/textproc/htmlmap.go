package textproc

// StripResult is the offset-preserving form of StripHTML: production
// annotation must wrap spans in the *original* markup, so every byte of the
// stripped text remembers where it came from.
type StripResult struct {
	// Text is the stripped plain text (same content StripHTML produces).
	Text string
	// src is the original HTML.
	src string
	// srcOffsets[i] is the byte offset in the original HTML of Text[i].
	// Synthetic bytes (entity expansions, inserted paragraph breaks) map to
	// the offset of the construct that produced them.
	srcOffsets []int
}

// SourceOffset maps an offset in the stripped text back into the original
// HTML. Out-of-range inputs are clamped.
func (r *StripResult) SourceOffset(textOff int) int {
	if len(r.srcOffsets) == 0 {
		return 0
	}
	if textOff < 0 {
		textOff = 0
	}
	if textOff >= len(r.srcOffsets) {
		// One past the end maps one past the last source byte.
		return r.srcOffsets[len(r.srcOffsets)-1] + 1
	}
	return r.srcOffsets[textOff]
}

// SourceSpan maps a [start,end) span of the stripped text to the source
// span that produced it: a span ending in a decoded entity takes the whole
// entity, not its '&' alone. A span that splits one construct's expansion
// (part of an entity's bytes, one of a tag's two breaks) has no such
// source slice and maps to an empty span at its start.
func (r *StripResult) SourceSpan(start, end int) (int, int) {
	lo := r.SourceOffset(start)
	offs := r.srcOffsets
	if start < 0 || end <= start || end > len(offs) ||
		start > 0 && offs[start-1] == lo || end < len(offs) && offs[end] == offs[end-1] {
		return lo, lo
	}
	hi := offs[end-1] + 1
	if r.src[hi-1] == '&' {
		_, hi = decodeEntity(r.src, hi-1)
	}
	return lo, hi
}

// StripHTMLMapped strips tags like StripHTML while recording, for every
// output byte, the input offset it came from.
func StripHTMLMapped(html string) *StripResult {
	offs := make([]int, 0, len(html))
	text := stripHTML(html, &offs)
	return &StripResult{Text: text, src: html, srcOffsets: offs}
}
