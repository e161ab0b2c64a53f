// Package textproc implements the text pre-processing stages of the
// Contextual Shortcuts platform: HTML stripping, tokenization, stop-word
// filtering, and the fixed-size character windowing used to counter
// position bias in click data.
//
// The pipeline follows the paper's §II "sequence of pre-processing steps
// [that] handles HTML parsing, tokenization, sentence, and paragraph
// boundary detection", less the boundaries: no stage of detection, ranking
// or the paper's evaluation reads a sentence or paragraph index.
package textproc

import (
	"strings"
	"unicode"
	"unicode/utf8"
)

// TokenKind classifies a token produced by the tokenizer.
type TokenKind int

const (
	// Word is an alphabetic or alphanumeric token.
	Word TokenKind = iota
	// Number is a token consisting only of digits and digit separators.
	Number
	// Punct is a punctuation token (kept so detectors can see structure).
	Punct
)

// Token is a single lexical unit with its position in the original text.
type Token struct {
	// Text is the raw token as it appears in the input.
	Text string
	// Norm is the normalized form: lower-cased with surrounding
	// punctuation trimmed. Empty for pure punctuation tokens.
	Norm string
	// Kind classifies the token.
	Kind TokenKind
	// Start and End are byte offsets into the original text ([Start,End)).
	Start int
	End   int
}

// TokenizeInto splits text into tokens with byte offsets, appending them to
// buf (pass buf[:0] to reuse a scratch buffer across documents; the
// detection hot path pools these). Words are maximal runs of letters,
// digits, apostrophes and hyphens that begin with a letter or digit;
// everything else that is not whitespace becomes a punctuation token. The
// returned slice aliases buf's backing array when capacity suffices.
//
// ASCII bytes are classified through a 128-entry table; only bytes ≥ 0x80
// pay for rune decoding and the unicode tables. Normalization allocates
// once per document, not once per capitalized word: the lower-cased forms
// of the ASCII tokens that need one are collected in one buffer and the
// tokens' Norms are cut from its string.
func TokenizeInto(text string, buf []Token) []Token {
	tokens := buf
	if cap(tokens) == 0 {
		tokens = make([]Token, 0, len(text)/6+4)
	}
	first := len(tokens)
	lowered := make([]byte, 0, 256) // on the stack until a document outgrows it
	i := 0
	for i < len(text) {
		class, size := classAt(text, i)
		switch {
		case class&cSpace != 0:
			i += size
		case class&cAlnum != 0:
			start := i
			i += size
			for i < len(text) {
				c2, s2 := classAt(text, i)
				if c2&cInner != 0 {
					class |= c2
					i += s2
					continue
				}
				// A decimal point inside a number ("3.5") stays in the token.
				if text[i] == '.' && i+1 < len(text) && isASCIIDigit(text[i-1]) && isASCIIDigit(text[i+1]) {
					i++
					continue
				}
				break
			}
			raw := text[start:i]
			trimmed := trimWord(raw)
			kind := Word
			if isNumeric(trimmed) {
				kind = Number
			}
			// trimmed starts and ends with a letter or digit, so Normalize's
			// punctuation trim is a no-op on it: lower-casing is all that is
			// left, and an ASCII token without capitals is its own Norm.
			norm := trimmed
			switch {
			case class&cWide != 0:
				norm = strings.ToLower(trimmed)
			case class&cUpper != 0:
				norm = "" // cut from lowered below
				for j := 0; j < len(trimmed); j++ {
					c := trimmed[j]
					if 'A' <= c && c <= 'Z' {
						c += 'a' - 'A'
					}
					lowered = append(lowered, c)
				}
			}
			tokens = append(tokens, Token{
				Text:  raw,
				Norm:  norm,
				Kind:  kind,
				Start: start,
				End:   i,
			})
		default:
			tokens = append(tokens, Token{
				Text:  text[i : i+size],
				Kind:  Punct,
				Start: i,
				End:   i + size,
			})
			i += size
		}
	}
	if len(lowered) > 0 {
		// The word tokens left without a Norm are, in order, the ones whose
		// lower-cased bytes were appended to lowered.
		norms := string(lowered)
		for j := first; j < len(tokens); j++ {
			if t := &tokens[j]; t.Kind != Punct && t.Norm == "" {
				n := len(trimWord(t.Text))
				t.Norm, norms = norms[:n], norms[n:]
			}
		}
	}
	return tokens
}

// trimWord trims the trailing hyphens and apostrophes of a word token's raw
// text, so "co-" tokenizes as "co". The token starts with a letter or
// digit, so this never empties it.
func trimWord(raw string) string {
	end := len(raw)
	for raw[end-1] == '\'' || raw[end-1] == '-' {
		end--
	}
	return raw[:end]
}

// Rune classes of the tokenizer. cInner is what may continue a word token:
// letters, digits, apostrophe and hyphen. cUpper and cWide say how a token
// holding such a rune is lower-cased: an ASCII capital bytewise, a rune
// beyond ASCII by strings.ToLower.
const (
	cSpace = 1 << iota
	cAlnum
	cInner
	cUpper
	cWide
)

// asciiClass classifies the bytes below utf8.RuneSelf exactly as
// unicode.IsSpace / IsLetter / IsDigit do.
var asciiClass = func() (t [utf8.RuneSelf]uint8) {
	for _, c := range "\t\n\v\f\r " {
		t[c] = cSpace
	}
	for c := 0; c < utf8.RuneSelf; c++ {
		switch {
		case c >= 'a' && c <= 'z' || c >= '0' && c <= '9':
			t[c] = cAlnum | cInner
		case c >= 'A' && c <= 'Z':
			t[c] = cAlnum | cInner | cUpper
		}
	}
	t['\''], t['-'] = cInner, cInner
	return t
}()

// classAt returns the class and byte length of the rune at text[i:].
// Invalid UTF-8 is one byte of no class (utf8.RuneError with size 1), so
// the tokenizer always makes progress.
func classAt(text string, i int) (class uint8, size int) {
	if c := text[i]; c < utf8.RuneSelf {
		return asciiClass[c], 1
	}
	r, size := utf8.DecodeRuneInString(text[i:])
	switch {
	case unicode.IsSpace(r):
		return cSpace, size
	case unicode.IsLetter(r) || unicode.IsDigit(r):
		return cAlnum | cInner | cWide, size
	}
	return 0, size
}

func isASCIIDigit(b byte) bool { return b >= '0' && b <= '9' }

func isNumeric(s string) bool {
	hasDigit := false
	for _, r := range s {
		if unicode.IsDigit(r) {
			hasDigit = true
			continue
		}
		if r == '.' || r == ',' || r == '-' {
			continue
		}
		return false
	}
	return hasDigit
}

// Normalize lower-cases s and trims surrounding punctuation, matching the
// paper's note that "all characters are lower cased and the surrounding
// punctuation characters are removed".
func Normalize(s string) string {
	s = strings.TrimFunc(s, func(r rune) bool {
		return unicode.IsPunct(r) || unicode.IsSymbol(r)
	})
	return strings.ToLower(s)
}

// Words returns the normalized word tokens of text, dropping punctuation and
// empty normalizations. This is the common entry point for bag-of-words
// consumers (tf·idf, snippets, query processing).
func Words(text string) []string {
	tokens := WordTokens(text, nil)
	words := make([]string, len(tokens))
	for i := range tokens {
		words[i] = tokens[i].Norm
	}
	return words
}

// WordTokens is TokenizeInto keeping only the tokens whose Norms Words
// returns: it appends text's word tokens to buf (pass buf[:0] to reuse a
// scratch buffer across texts).
func WordTokens(text string, buf []Token) []Token {
	tokens := TokenizeInto(text, buf)
	n := len(buf)
	for _, t := range tokens[len(buf):] {
		if t.Kind != Punct && t.Norm != "" {
			tokens[n] = t
			n++
		}
	}
	return tokens[:n]
}
