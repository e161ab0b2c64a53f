package textproc

import (
	"reflect"
	"testing"
)

func TestSentenceBoundaries(t *testing.T) {
	text := "The war continued. Troops advanced quickly! Was it over? Nobody knew."
	got := Sentences(text)
	want := []string{
		"The war continued.",
		"Troops advanced quickly!",
		"Was it over?",
		"Nobody knew.",
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Sentences = %q, want %q", got, want)
	}
}

func TestSentenceAbbreviations(t *testing.T) {
	text := "Sen. Clinton met Dr. Smith. They talked."
	got := Sentences(text)
	if len(got) != 2 {
		t.Fatalf("expected 2 sentences, got %d: %q", len(got), got)
	}
	if got[0] != "Sen. Clinton met Dr. Smith." {
		t.Errorf("first sentence = %q", got[0])
	}
}

func TestSentenceInitials(t *testing.T) {
	text := "J. Smith arrived early. He left late."
	got := Sentences(text)
	if len(got) != 2 {
		t.Fatalf("expected 2 sentences, got %d: %q", len(got), got)
	}
}

func TestParagraphBoundaries(t *testing.T) {
	text := "First paragraph here.\n\nSecond paragraph now. Another sentence.\n\nThird."
	tokens := Tokenize(text)
	last := tokens[len(tokens)-1]
	if got := last.Paragraph + 1; got != 3 {
		t.Fatalf("paragraphs = %d, want 3", got)
	}
	if got := last.Sentence + 1; got != 4 {
		t.Fatalf("sentences = %d, want 4", got)
	}
}

func TestTokensCarrySentenceIndex(t *testing.T) {
	tokens := Tokenize("One here. Two there.")
	bySentence := map[int][]string{}
	for _, tok := range tokens {
		if tok.Kind == Word {
			bySentence[tok.Sentence] = append(bySentence[tok.Sentence], tok.Norm)
		}
	}
	if !reflect.DeepEqual(bySentence[0], []string{"one", "here"}) {
		t.Errorf("sentence 0 = %v", bySentence[0])
	}
	if !reflect.DeepEqual(bySentence[1], []string{"two", "there"}) {
		t.Errorf("sentence 1 = %v", bySentence[1])
	}
}
