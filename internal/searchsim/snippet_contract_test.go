package searchsim

// Pins the Snippets contract: one window per result around the first
// phrase occurrence, no result for a document without the phrase, and
// correct clamping when the phrase sits at a document boundary.

import (
	"strings"
	"testing"
)

// snippetEngine builds a corpus with one long document whose tokens are
// w0..w99 plus boundary-phrase docs, as a raw segment and as a frozen one.
func snippetEngines(t *testing.T) []*Engine {
	t.Helper()
	long := make([]string, 100)
	for i := range long {
		long[i] = "w" + string(rune('a'+i/10)) + string(rune('a'+i%10))
	}
	build := func() *Engine {
		e := NewEngine()
		e.Add(strings.Join(long, " "), 0)                     // doc 0: long neutral doc
		e.Add("edge start "+strings.Join(long[:40], " "), 0)  // doc 1: phrase at position 0
		e.Add(strings.Join(long[:40], " ")+" edge finish", 0) // doc 2: phrase at the last positions
		e.Add("tiny doc", 0)                                  // doc 3: shorter than the window
		e.Commit()
		return e
	}
	raw := build()
	frozen := build()
	frozen.CompactAll()
	return []*Engine{raw, frozen}
}

// TestSnippetAbsentPhraseHeadWindow: a document without the phrase yields
// no snippet — no head window stands in for a missing occurrence — and an
// empty or unknown-vocabulary phrase yields none at all.
func TestSnippetAbsentPhraseHeadWindow(t *testing.T) {
	for _, e := range snippetEngines(t) {
		// "edge start" occurs in doc 1 only, not in the long doc 0.
		if got := e.Snippets("edge start", 10); len(got) != 1 || !strings.HasPrefix(got[0], "edge start") {
			t.Fatalf("snippets of a one-document phrase = %q", got)
		}
		for _, phrase := range []string{"", "zz yy"} {
			if got := e.Snippets(phrase, 10); len(got) != 0 {
				t.Fatalf("absent phrase %q has snippets %q", phrase, got)
			}
		}
	}
}

func TestSnippetPhraseAtBoundary(t *testing.T) {
	for _, e := range snippetEngines(t) {
		// Phrase at position 0: window starts at the document head.
		got := e.Snippets("edge start", 1)[0]
		if !strings.HasPrefix(got, "edge start") {
			t.Fatalf("boundary-start snippet should begin with phrase: %q", got)
		}
		wantLen := 2 + SnippetWidth // no left context available
		if n := len(strings.Fields(got)); n != wantLen {
			t.Fatalf("boundary-start snippet has %d tokens, want %d", n, wantLen)
		}
		// Phrase ending at the last token: window clamps on the right.
		got = e.Snippets("edge finish", 1)[0]
		if !strings.HasSuffix(got, "edge finish") {
			t.Fatalf("boundary-end snippet should end with phrase: %q", got)
		}
		if n := len(strings.Fields(got)); n != 2+SnippetWidth {
			t.Fatalf("boundary-end snippet has %d tokens, want %d", n, 2+SnippetWidth)
		}
	}
}

func TestSnippetShortDocument(t *testing.T) {
	for _, e := range snippetEngines(t) {
		// A doc shorter than the window returns the whole doc, whichever of
		// its words the phrase is.
		for _, phrase := range []string{"tiny doc", "tiny", "doc"} {
			if got := e.Snippets(phrase, 10); len(got) != 1 || got[0] != "tiny doc" {
				t.Fatalf("short-doc snippets of %q = %q", phrase, got)
			}
		}
	}
}
