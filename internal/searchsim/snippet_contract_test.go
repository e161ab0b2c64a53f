package searchsim

// Pins the documented Snippet contract: a window around the first phrase
// occurrence when present, the explicit head window when the phrase is
// absent or empty, and correct clamping when the phrase sits at a document
// boundary.

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
	frozen.CompactAll(1)
	return []*Engine{raw, frozen}
}

func TestSnippetAbsentPhraseHeadWindow(t *testing.T) {
	for _, e := range snippetEngines(t) {
		long := e.Snippet(0, "edge start") // phrase exists elsewhere, not in doc 0
		head := e.Snippet(0, "")
		d := e.Doc(0)
		join := func(hi int) string {
			var b strings.Builder
			for i := 0; i < hi; i++ {
				if i > 0 {
					b.WriteByte(' ')
				}
				b.WriteString(e.Vocab().Token(d.Tokens[i]))
			}
			return b.String()
		}
		// Absent 2-term phrase: head window of 2+SnippetWidth tokens.
		if want := join(2 + SnippetWidth); long != want {
			t.Fatalf("absent-phrase snippet = %q, want head window %q", long, want)
		}
		// Empty phrase: head window of SnippetWidth tokens.
		if want := join(SnippetWidth); head != want {
			t.Fatalf("empty-phrase snippet = %q, want %q", head, want)
		}
		// Unknown-vocabulary phrase behaves like any absent phrase.
		if got, want := e.Snippet(0, "zz yy"), join(2+SnippetWidth); got != want {
			t.Fatalf("unknown-term snippet = %q, want %q", got, want)
		}
	}
}

func TestSnippetPhraseAtBoundary(t *testing.T) {
	for _, e := range snippetEngines(t) {
		// Phrase at position 0: window starts at the document head.
		got := e.Snippet(1, "edge start")
		if !strings.HasPrefix(got, "edge start") {
			t.Fatalf("boundary-start snippet should begin with phrase: %q", got)
		}
		wantLen := 2 + SnippetWidth // no left context available
		if n := len(strings.Fields(got)); n != wantLen {
			t.Fatalf("boundary-start snippet has %d tokens, want %d", n, wantLen)
		}
		// Phrase ending at the last token: window clamps on the right.
		got = e.Snippet(2, "edge finish")
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
		// A doc shorter than the window returns the whole doc whether the
		// phrase matches or not.
		if got := e.Snippet(3, "tiny doc"); got != "tiny doc" {
			t.Fatalf("short-doc snippet = %q", got)
		}
		if got := e.Snippet(3, "absent words"); got != "tiny doc" {
			t.Fatalf("short-doc absent snippet = %q", got)
		}
	}
}
