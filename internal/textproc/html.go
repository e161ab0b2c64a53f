package textproc

import "strings"

// StripHTML removes tags, comments, scripts, styles and decodes the common
// HTML entities, returning plain text suitable for the tokenizer. Block-level
// closing tags are replaced with paragraph breaks, so the text keeps the
// document's blocks apart.
func StripHTML(html string) string { return stripHTML(html, nil) }

// stripHTML is the one tag/comment/script walker behind StripHTML and
// StripHTMLMapped. A non-nil offs receives, for every byte of the returned
// text, the offset in html it came from.
func stripHTML(html string, offs *[]int) string {
	var b strings.Builder
	b.Grow(len(html))
	// emit writes s, which came from html at src: byte for byte when it is
	// text copied through (stride 1), all of it from the one construct that
	// starts there when it is an entity's expansion or a tag's break (0).
	emit := func(s string, src, stride int) {
		b.WriteString(s)
		if offs != nil {
			for k := range len(s) {
				*offs = append(*offs, src+k*stride)
			}
		}
	}
	for i := 0; i < len(html); {
		switch html[i] {
		default: // a run of plain text
			j := i + 1
			for j < len(html) && html[j] != '<' && html[j] != '&' {
				j++
			}
			emit(html[i:j], i, 1)
			i = j
		case '&':
			text, next := decodeEntity(html, i)
			emit(text, i, 0)
			i = next
		case '<':
			if strings.HasPrefix(html[i:], "<!--") {
				end := strings.Index(html[i+4:], "-->")
				if end < 0 {
					return b.String()
				}
				i += 4 + end + 3
				continue
			}
			end := strings.IndexByte(html[i:], '>')
			if end < 0 {
				return b.String()
			}
			tagStart := i
			name := tagName(html[i+1 : i+end])
			i += end + 1
			switch name {
			case "script", "style":
				// Skip to the end of the matching close tag.
				rest := indexCloseTag(html[i:], name)
				if rest < 0 {
					return b.String()
				}
				i += rest
				gt := strings.IndexByte(html[i:], '>')
				if gt < 0 {
					return b.String()
				}
				i += gt + 1
			case "p", "div", "br", "li", "tr", "h1", "h2", "h3", "h4", "h5", "h6", "blockquote", "section", "article":
				emit("\n\n", tagStart, 0)
			default:
				emit(" ", tagStart, 0)
			}
		}
	}
	return b.String()
}

// indexCloseTag returns the index in s of the first "</name", matched without
// regard to ASCII case, or -1. It compares in place: lower-casing s first
// would shift the offsets of everything after a rune whose lower case has a
// different length, or after a byte that is not UTF-8.
func indexCloseTag(s, name string) int {
	for from := 0; ; {
		k := strings.Index(s[from:], "</")
		if k < 0 {
			return -1
		}
		from += k + 2
		if len(s)-from >= len(name) && strings.EqualFold(s[from:from+len(name)], name) {
			return from - 2
		}
	}
}

// tagName extracts the lower-case element name from the inside of a tag,
// dropping a leading slash and any attributes.
func tagName(tag string) string {
	tag = strings.TrimSpace(tag)
	tag = strings.TrimPrefix(tag, "/")
	for j := 0; j < len(tag); j++ {
		c := tag[j]
		if c == ' ' || c == '\t' || c == '\n' || c == '/' || c == '>' {
			tag = tag[:j]
			break
		}
	}
	return strings.ToLower(tag)
}

var entities = map[string]string{
	"amp": "&", "lt": "<", "gt": ">", "quot": "\"", "apos": "'",
	"nbsp": " ", "mdash": "—", "ndash": "–", "hellip": "…",
	"lsquo": "'", "rsquo": "'", "ldquo": "\"", "rdquo": "\"",
}

// decodeEntity decodes the entity starting at the '&' at s[i], returning its
// text and the index after it — or "&" and i+1 when no entity matches.
func decodeEntity(s string, i int) (text string, next int) {
	semi := strings.IndexByte(s[i:min(i+9, len(s))], ';') // no entity is longer
	if semi > 1 {
		name := s[i+1 : i+semi]
		if rep, ok := entities[name]; ok {
			return rep, i + semi + 1
		}
		if len(name) > 1 && name[0] == '#' {
			// Numeric entity: decode decimal code points in the BMP.
			n := 0
			ok := true
			for _, d := range name[1:] {
				if d < '0' || d > '9' {
					ok = false
					break
				}
				n = n*10 + int(d-'0')
			}
			if ok && n > 0 && n < 0x10000 {
				return string(rune(n)), i + semi + 1
			}
		}
	}
	return "&", i + 1
}
