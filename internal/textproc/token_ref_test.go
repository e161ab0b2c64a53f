package textproc

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"unicode"
	"unicode/utf8"
)

// tokenizeRef is the tokenizer as it was before the ASCII byte-class table:
// every byte goes through rune decoding and the unicode predicates, and every
// token through Normalize. It is the oracle TokenizeInto must equal.
func tokenizeRef(text string) []Token {
	decode := func(s string) (rune, int) {
		if s[0] < utf8.RuneSelf {
			return rune(s[0]), 1
		}
		return utf8.DecodeRuneInString(s)
	}
	tokens := make([]Token, 0, len(text)/6+4)
	i := 0
	for i < len(text) {
		r, size := decode(text[i:])
		switch {
		case unicode.IsSpace(r):
			i += size
		case unicode.IsLetter(r) || unicode.IsDigit(r):
			start := i
			i += size
			for i < len(text) {
				r2, s2 := decode(text[i:])
				if unicode.IsLetter(r2) || unicode.IsDigit(r2) || r2 == '\'' || r2 == '-' {
					i += s2
					continue
				}
				if r2 == '.' && i+s2 < len(text) && isASCIIDigit(text[i-1]) && isASCIIDigit(text[i+s2]) {
					i += s2
					continue
				}
				break
			}
			raw := text[start:i]
			trimmed := strings.TrimRight(raw, "'-")
			if trimmed == "" {
				trimmed = raw
			}
			kind := Word
			if isNumeric(trimmed) {
				kind = Number
			}
			tokens = append(tokens, Token{Text: raw, Norm: Normalize(trimmed), Kind: kind, Start: start, End: start + len(raw)})
		default:
			tokens = append(tokens, Token{Text: text[i : i+size], Kind: Punct, Start: i, End: i + size})
			i += size
		}
	}
	return tokens
}

// randomText draws from an alphabet chosen to hit every tokenizer branch:
// ASCII letters in both cases, digits with separators, the word-inner
// punctuation, every ASCII space, Latin-1 and wider letters, non-ASCII
// spaces, digits and punctuation, and bytes that are not UTF-8 at all.
func randomText(rng *rand.Rand, n int) string {
	pieces := []string{
		"a", "b", "Z", "Q", "e", "0", "7", "9", ".", ",", "'", "-", "--", "'-",
		" ", " ", "\t", "\n", "\n\n", "\v", "\f", "\r", "!", "?", "(", "@", "_",
		"é", "Ï", "ß", "ж", "Ж", "中", "٣", "Ⅷ", "\u00a0", "\u0085", "\u2003", "\u3000",
		"—", "“", "€", "\u0301", "\xff", "\xe2\x82", "\xc3", "\x80",
	}
	var b strings.Builder
	for b.Len() < n {
		b.WriteString(pieces[rng.Intn(len(pieces))])
	}
	return b.String()
}

func TestTokenizeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	texts := []string{
		"", "co-", "-'", "3.5", "3.", ".5", "1.2.3", "a.1", "1.a", "U.S. v1.0-beta's",
		"Bush's well-known auto-insurance", "naïve café — test", "İstanbul ǅ", "x\xffy", "é-", "'tis",
	}
	for i := 0; i < 2000; i++ {
		texts = append(texts, randomText(rng, 1+rng.Intn(120)))
	}
	var buf []Token
	for _, text := range texts {
		want := tokenizeRef(text)
		buf = TokenizeInto(text, buf[:0])
		if len(want) == 0 && len(buf) == 0 {
			continue
		}
		if !reflect.DeepEqual(buf, want) {
			t.Fatalf("TokenizeInto(%q)\n got %+v\nwant %+v", text, buf, want)
		}
	}
}
