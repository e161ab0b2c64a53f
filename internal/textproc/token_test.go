package textproc

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestTokenizeSimple(t *testing.T) {
	tokens := TokenizeInto("Hello, world!", nil)
	var words []string
	for _, tok := range tokens {
		if tok.Kind == Word {
			words = append(words, tok.Norm)
		}
	}
	if !reflect.DeepEqual(words, []string{"hello", "world"}) {
		t.Fatalf("words = %v", words)
	}
}

func TestTokenizeOffsets(t *testing.T) {
	text := "President Bush's position was similar."
	tokens := TokenizeInto(text, nil)
	for _, tok := range tokens {
		if got := text[tok.Start:tok.End]; got != tok.Text {
			t.Errorf("offset mismatch: token %q but text slice %q", tok.Text, got)
		}
	}
}

func TestTokenizeApostropheAndHyphen(t *testing.T) {
	tokens := TokenizeInto("Bush's well-known auto-insurance", nil)
	var norms []string
	for _, tok := range tokens {
		if tok.Kind == Word {
			norms = append(norms, tok.Norm)
		}
	}
	want := []string{"bush's", "well-known", "auto-insurance"}
	if !reflect.DeepEqual(norms, want) {
		t.Fatalf("norms = %v, want %v", norms, want)
	}
}

func TestTokenizeNumbers(t *testing.T) {
	tokens := TokenizeInto("In 2007, 16549 clicks and 3.5 percent", nil)
	var nums []string
	for _, tok := range tokens {
		if tok.Kind == Number {
			nums = append(nums, tok.Text)
		}
	}
	want := []string{"2007", "16549", "3.5"}
	if !reflect.DeepEqual(nums, want) {
		t.Fatalf("numbers = %v, want %v", nums, want)
	}
}

func TestTokenizeEmpty(t *testing.T) {
	if got := TokenizeInto("", nil); len(got) != 0 {
		t.Fatalf("expected no tokens, got %v", got)
	}
	if got := TokenizeInto("   \n\t ", nil); len(got) != 0 {
		t.Fatalf("expected no tokens for whitespace, got %v", got)
	}
}

func TestTokenizeUnicode(t *testing.T) {
	tokens := TokenizeInto("naïve café — test", nil)
	var words []string
	for _, tok := range tokens {
		if tok.Kind == Word {
			words = append(words, tok.Norm)
		}
	}
	want := []string{"naïve", "café", "test"}
	if !reflect.DeepEqual(words, want) {
		t.Fatalf("words = %v, want %v", words, want)
	}
}

func TestNormalize(t *testing.T) {
	cases := map[string]string{
		"Hello":     "hello",
		"'quoted'":  "quoted",
		"(Texas)":   "texas",
		"U.S.":      "u.s",
		"...":       "",
		"Obama,":    "obama",
		"MiXeD-":    "mixed",
		"“Clinton”": "clinton",
	}
	for in, want := range cases {
		if got := Normalize(in); got != want {
			t.Errorf("Normalize(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestWords(t *testing.T) {
	got := Words("President Bush, and Sen. Clinton!")
	want := []string{"president", "bush", "and", "sen", "clinton"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Words = %v, want %v", got, want)
	}
}

func TestContentWords(t *testing.T) {
	got := ContentWords("the position of the president was similar to that of Clinton")
	for _, w := range got {
		if IsStopword(w) {
			t.Errorf("stopword %q survived ContentWords", w)
		}
	}
	joined := strings.Join(got, " ")
	for _, want := range []string{"position", "president", "similar", "clinton"} {
		if !strings.Contains(joined, want) {
			t.Errorf("ContentWords missing %q: %v", want, got)
		}
	}
}

// Property: every token's offsets slice back to its raw text, tokens are
// non-overlapping and ordered.
func TestTokenizeOffsetsProperty(t *testing.T) {
	f := func(s string) bool {
		tokens := TokenizeInto(s, nil)
		prevEnd := 0
		for _, tok := range tokens {
			if tok.Start < prevEnd || tok.End <= tok.Start || tok.End > len(s) {
				return false
			}
			if s[tok.Start:tok.End] != tok.Text {
				return false
			}
			prevEnd = tok.End
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: Normalize is idempotent.
func TestNormalizeIdempotent(t *testing.T) {
	f := func(s string) bool {
		once := Normalize(s)
		return Normalize(once) == once
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkTokenize(b *testing.B) {
	text := strings.Repeat("President Bush's position was similar to that of New York Sen. Clinton, who argued at a debate with Obama last week in Texas. ", 20)
	b.SetBytes(int64(len(text)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		TokenizeInto(text, nil)
	}
}

// BenchmarkTokenizeInto is the tokenizer as the serving path runs it: into
// a reused buffer, so only token normalization allocates.
func BenchmarkTokenizeInto(b *testing.B) {
	text := strings.Repeat("President Bush's position was similar to that of New York Sen. Clinton, who argued at a debate with Obama last week in Texas. ", 20)
	b.SetBytes(int64(len(text)))
	b.ReportAllocs()
	var buf []Token
	for i := 0; i < b.N; i++ {
		buf = TokenizeInto(text, buf[:0])
	}
}
