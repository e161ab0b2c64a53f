package wire

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"unicode/utf16"
	"unicode/utf8"
)

// ReadBody reads r's body into buf's storage and returns it, writing the
// error response itself when it cannot: 413 past MaxDocumentBytes — however
// early the body's first JSON value ends — and 400 for a failed read. The
// buffer is sized once from Content-Length; the returned slice is buf's
// (possibly regrown) storage even on failure, so a pooling caller keeps it.
func ReadBody(w http.ResponseWriter, r *http.Request, buf []byte) ([]byte, bool) {
	src := http.MaxBytesReader(w, r.Body, MaxDocumentBytes)
	// One byte past the declared length: a reader that reports EOF on a
	// call of its own then does so without forcing a regrowth.
	if n := max(min(r.ContentLength, MaxDocumentBytes)+1, 512); n > int64(cap(buf)) {
		buf = make([]byte, 0, n)
	}
	buf = buf[:0]
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := src.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, true
		}
		if err != nil {
			var mbe *http.MaxBytesError
			if errors.As(err, &mbe) {
				http.Error(w, "request body exceeds document limit", http.StatusRequestEntityTooLarge)
			} else {
				http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
			}
			return buf, false
		}
	}
}

// Request is a decoded AnnotateRequest whose Text may be a view into the
// body it was parsed from: valid only until that buffer is reused, and to be
// copied before anything outlives the request.
type Request struct {
	Text []byte
	HTML bool
	Top  int
}

// ParseRequest decodes a request body. The shape every client sends is
// scanned in one pass and Text is unescaped in place — body is overwritten
// and Text points into it. Any other body is left untouched and handed to
// encoding/json, whose result and error text are therefore the contract for
// everything the scanner declines.
func ParseRequest(body []byte) (Request, error) {
	if f, ok := scan(body); ok {
		return Request{Text: unescape(body[f.textStart:f.textEnd]), HTML: f.html, Top: f.top}, nil
	}
	var req AnnotateRequest
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
		return Request{}, err
	}
	return Request{Text: []byte(req.Text), HTML: req.HTML, Top: req.Top}, nil
}

// RouteKey is the router's key for a request body, computed without
// decoding, copying or changing it: Key over the unescaped text and top —
// what the owning shard's cache will compute — with the html flag folded
// into the text identity ("html\x00" prefix), because it changes what the
// shard strips. A body the scanner declines, or one with no text, still
// routes (the shard owns the 400) and is keyed by its raw bytes, so
// identical malformed requests coalesce too.
//
//kw:hotpath
func RouteKey(body []byte) uint64 {
	f, ok := scan(body)
	if !ok || f.textStart == f.textEnd {
		return Key(body, -1)
	}
	h := uint64(fnvOffset64)
	if f.html {
		h = fnvAdd(h, "html\x00")
	}
	text := body[f.textStart:f.textEnd]
	var enc [utf8.UTFMax]byte
	for i := 0; i < len(text); {
		n := bytes.IndexByte(text[i:], '\\')
		if n < 0 {
			h = fnvAdd(h, text[i:])
			break
		}
		h = fnvAdd(h, text[i:i+n])
		var r rune
		r, i = unescapeRune(text, i+n+1)
		h = fnvAdd(h, enc[:utf8.EncodeRune(enc[:], r)])
	}
	return fnvAddInt(h, f.top)
}

// fields is what scan found in a body it accepts.
type fields struct {
	textStart, textEnd int // the text value between its quotes, still escaped
	html               bool
	top                int
}

// scan recognises, in one pass and without writing, a body of the shape
// every client sends: one object whose keys are exactly "text", "html" and
// "top" — each at most once, in any order, JSON whitespace between tokens —
// with a string, a bool and a plain integer as values. Whatever follows the
// closing brace is ignored, as Decoder.Decode ignores it. Everything else is
// declined: other, case-variant, escaped or repeated keys, null, floats,
// integers of 19 digits or more, and strings holding a lone surrogate or
// invalid UTF-8 (which encoding/json would replace). Accepting means
// encoding/json decodes the same body to the same three fields.
//
//kw:hotpath
func scan(b []byte) (f fields, ok bool) {
	i := skipSpace(b, 0)
	if i >= len(b) || b[i] != '{' {
		return f, false
	}
	i = skipSpace(b, i+1)
	if i < len(b) && b[i] == '}' {
		return f, true
	}
	const keyText, keyHTML, keyTop = 1, 2, 4
	seen := 0
	for {
		key := 0
		switch {
		case hasPrefix(b, i, `"text"`):
			key, i = keyText, i+6
		case hasPrefix(b, i, `"html"`):
			key, i = keyHTML, i+6
		case hasPrefix(b, i, `"top"`):
			key, i = keyTop, i+5
		}
		if key == 0 || seen&key != 0 {
			return f, false
		}
		seen |= key
		i = skipSpace(b, i)
		if i >= len(b) || b[i] != ':' {
			return f, false
		}
		i = skipSpace(b, i+1)
		switch key {
		case keyText:
			if i >= len(b) || b[i] != '"' {
				return f, false
			}
			f.textStart = i + 1
			if f.textEnd, ok = scanString(b, i+1); !ok {
				return f, false
			}
			i = f.textEnd + 1
		case keyHTML:
			switch {
			case hasPrefix(b, i, "true"):
				f.html, i = true, i+4
			case hasPrefix(b, i, "false"):
				i += 5
			default:
				return f, false
			}
		case keyTop:
			if f.top, i, ok = scanInt(b, i); !ok {
				return f, false
			}
		}
		// A value glued to anything but a separator ("1.0", "1e2", "truex")
		// fails here.
		i = skipSpace(b, i)
		if i >= len(b) {
			return f, false
		}
		if b[i] == '}' {
			return f, true
		}
		if b[i] != ',' {
			return f, false
		}
		i = skipSpace(b, i+1)
	}
}

func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\n' || b[i] == '\t' || b[i] == '\r') {
		i++
	}
	return i
}

func hasPrefix(b []byte, i int, lit string) bool {
	if len(b)-i < len(lit) {
		return false
	}
	for j := 0; j < len(lit); j++ {
		if b[i+j] != lit[j] {
			return false
		}
	}
	return true
}

// plainByte marks the bytes a JSON string holds as themselves: printable
// ASCII other than the quote and the backslash.
var plainByte = func() (t [256]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// scanString validates the string whose first content byte is b[i] and
// returns the index of its closing quote.
func scanString(b []byte, i int) (end int, ok bool) {
	for {
		for i < len(b) && plainByte[b[i]] {
			i++
		}
		if i >= len(b) {
			return 0, false
		}
		switch c := b[i]; {
		case c == '"':
			return i, true
		case c == '\\':
			if i+1 >= len(b) {
				return 0, false
			}
			switch b[i+1] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				i += 2
			case 'u':
				r := hex4(b, i+2)
				if r < 0 {
					return 0, false
				}
				i += 6
				if utf16.IsSurrogate(r) {
					// Only a high half directly followed by an escaped low
					// half is a character; encoding/json replaces the rest.
					if !hasPrefix(b, i, `\u`) || utf16.DecodeRune(r, hex4(b, i+2)) == utf8.RuneError {
						return 0, false
					}
					i += 6
				}
			default:
				return 0, false
			}
		case c < 0x20:
			return 0, false
		default:
			r, size := utf8.DecodeRune(b[i:])
			if r == utf8.RuneError && size == 1 {
				return 0, false
			}
			i += size
		}
	}
}

// hex4 reads the four hex digits at b[i:], or returns -1.
func hex4(b []byte, i int) rune {
	if len(b)-i < 4 {
		return -1
	}
	var r rune
	for _, c := range b[i : i+4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}

// scanInt reads the plain integer at b[i:]: an optional minus and up to 18
// digits with no leading zero, so the value fits without an overflow check
// on the way.
func scanInt(b []byte, i int) (v, next int, ok bool) {
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	start, n := i, int64(0)
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		n = n*10 + int64(b[i]-'0')
		i++
	}
	if digits := i - start; digits == 0 || digits > 18 || digits > 1 && b[start] == '0' {
		return 0, 0, false
	}
	if neg {
		n = -n
	}
	v = int(n)
	return v, i, int64(v) == n
}

// unescapeRune decodes the escape whose backslash is at s[i-1], in a string
// scanString accepted, and returns the index after it.
func unescapeRune(s []byte, i int) (rune, int) {
	switch c := s[i]; c {
	case 'b':
		return '\b', i + 1
	case 'f':
		return '\f', i + 1
	case 'n':
		return '\n', i + 1
	case 'r':
		return '\r', i + 1
	case 't':
		return '\t', i + 1
	case 'u':
		r := hex4(s, i+1)
		if utf16.IsSurrogate(r) {
			return utf16.DecodeRune(r, hex4(s, i+7)), i + 11
		}
		return r, i + 5
	default: // '"', '\\', '/'
		return rune(c), i + 1
	}
}

// unescape rewrites s — a string scanString accepted — in place and returns
// the unescaped prefix; no escape is shorter than the bytes it stands for.
func unescape(s []byte) []byte {
	w := bytes.IndexByte(s, '\\')
	if w < 0 {
		return s
	}
	for i := w; i < len(s); {
		var r rune
		r, i = unescapeRune(s, i+1)
		w += utf8.EncodeRune(s[w:], r)
		// The plain run up to the next escape moves as one block.
		n := bytes.IndexByte(s[i:], '\\')
		if n < 0 {
			n = len(s) - i
		}
		w += copy(s[w:], s[i:i+n])
		i += n
	}
	return s[:w]
}
