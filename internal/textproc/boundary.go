package textproc

import "strings"

// sentenceAbbrev lists common abbreviations whose trailing period does not
// terminate a sentence.
var sentenceAbbrev = map[string]bool{
	"mr": true, "mrs": true, "ms": true, "dr": true, "prof": true,
	"sen": true, "rep": true, "gov": true, "gen": true, "lt": true,
	"col": true, "sgt": true, "capt": true, "st": true, "mt": true,
	"etc": true, "vs": true, "inc": true, "ltd": true, "corp": true,
	"co": true, "jr": true, "sr": true, "u.s": true, "e.g": true,
	"i.e": true, "jan": true, "feb": true, "mar": true, "apr": true,
	"jun": true, "jul": true, "aug": true, "sep": true, "sept": true,
	"oct": true, "nov": true, "dec": true, "no": true, "vol": true,
}

// AssignBoundaries fills in the Sentence and Paragraph fields of tokens by
// scanning text for sentence terminators (., !, ? followed by whitespace and
// an upper-case letter or end of text, excluding common abbreviations) and
// paragraph breaks (blank lines).
func AssignBoundaries(text string, tokens []Token) {
	sentence, paragraph := 0, 0
	prevEnd := 0
	for i := range tokens {
		// Examine the gap between the previous token and this one for
		// paragraph breaks, and the previous token for sentence terminators.
		gap := text[prevEnd:tokens[i].Start]
		if strings.Count(gap, "\n") >= 2 {
			paragraph++
			sentence++
		} else if i > 0 && endsSentence(tokens[i-1], tokens[i], text) {
			sentence++
		}
		tokens[i].Sentence = sentence
		tokens[i].Paragraph = paragraph
		prevEnd = tokens[i].End
	}
}

// endsSentence reports whether prev terminates a sentence given that next is
// the first token after it.
func endsSentence(prev, next Token, text string) bool {
	if prev.Kind != Punct {
		return false
	}
	switch prev.Text {
	case "!", "?":
		return true
	case ".":
		// A period ends a sentence unless it follows a known abbreviation
		// or a single initial (e.g. "J. Smith").
		if prev.Start > 0 {
			// Find the word immediately before the period.
			j := prev.Start
			k := j
			for k > 0 && isWordByte(text[k-1]) {
				k--
			}
			if periodAbbrev(text, k, j) {
				return false
			}
		}
		// Require the next token to start upper-case or be punctuation that
		// commonly opens sentences (quotes).
		if next.Kind == Word && len(next.Text) > 0 {
			c := next.Text[0]
			return c >= 'A' && c <= 'Z'
		}
		return next.Kind == Number || next.Text == "\"" || next.Text == "'"
	}
	return false
}

// periodAbbrev reports whether the word text[k:j] before a period is a
// single initial or a known abbreviation. The word is ASCII-lowercased
// into a stack buffer so the sentence-boundary pass allocates nothing;
// the string conversion in the map lookup is the compiler's
// no-allocation map-key form. Abbreviations longer than the buffer
// cannot be in the table, so they fall through to "sentence ends".
func periodAbbrev(text string, k, j int) bool {
	n := j - k
	if n == 1 {
		return true
	}
	var buf [16]byte
	if n > len(buf) {
		return false
	}
	for i := 0; i < n; i++ {
		b := text[k+i]
		if b >= 'A' && b <= 'Z' {
			b += 'a' - 'A'
		}
		buf[i] = b
	}
	return sentenceAbbrev[string(buf[:n])]
}

func isWordByte(b byte) bool {
	return b >= 'a' && b <= 'z' || b >= 'A' && b <= 'Z' || b >= '0' && b <= '9' || b == '.'
}

// Sentences splits text into sentence strings using the same boundary rules
// as AssignBoundaries.
func Sentences(text string) []string {
	tokens := Tokenize(text)
	if len(tokens) == 0 {
		return nil
	}
	var out []string
	start := tokens[0].Start
	cur := 0
	for i := 1; i < len(tokens); i++ {
		if tokens[i].Sentence != cur {
			out = append(out, strings.TrimSpace(text[start:tokens[i-1].End]))
			start = tokens[i].Start
			cur = tokens[i].Sentence
		}
	}
	out = append(out, strings.TrimSpace(text[start:tokens[len(tokens)-1].End]))
	return out
}
