package textproc

import (
	"strings"
	"testing"
)

func TestStripHTMLBasic(t *testing.T) {
	html := `<html><body><p>Hello <b>world</b>!</p></body></html>`
	got := StripHTML(html)
	if !strings.Contains(got, "Hello") || !strings.Contains(got, "world") {
		t.Fatalf("StripHTML lost content: %q", got)
	}
	if strings.ContainsAny(got, "<>") {
		t.Fatalf("StripHTML left tags: %q", got)
	}
}

func TestStripHTMLScriptStyle(t *testing.T) {
	html := `<p>visible</p><script>var x = "hidden";</script><style>.c{color:red}</style><p>also visible</p>`
	got := StripHTML(html)
	if strings.Contains(got, "hidden") || strings.Contains(got, "color") {
		t.Fatalf("script/style content leaked: %q", got)
	}
	if !strings.Contains(got, "visible") || !strings.Contains(got, "also visible") {
		t.Fatalf("visible content lost: %q", got)
	}
}

func TestStripHTMLComments(t *testing.T) {
	got := StripHTML(`before<!-- secret comment -->after`)
	if strings.Contains(got, "secret") {
		t.Fatalf("comment leaked: %q", got)
	}
	if !strings.Contains(got, "before") || !strings.Contains(got, "after") {
		t.Fatalf("content lost: %q", got)
	}
}

func TestStripHTMLEntities(t *testing.T) {
	got := StripHTML("Bush &amp; Clinton &lt;debate&gt; &#65;")
	for _, want := range []string{"Bush & Clinton", "<debate>", "A"} {
		if !strings.Contains(got, want) {
			t.Errorf("missing %q in %q", want, got)
		}
	}
}

func TestStripHTMLParagraphBreaks(t *testing.T) {
	got := StripHTML("<p>one</p><p>two</p>")
	i, j := strings.Index(got, "one"), strings.Index(got, "two")
	if i < 0 || j < i+3 || strings.TrimSpace(got[i+3:j]) != "" || strings.Count(got[i+3:j], "\n") < 2 {
		t.Fatalf("block tags should leave a blank line between paragraphs: %q", got)
	}
}

func TestStripHTMLMalformed(t *testing.T) {
	// Unterminated constructs must not panic or loop.
	for _, in := range []string{"<p unclosed", "text <!-- unterminated", "<script>never closed", "&amp"} {
		_ = StripHTML(in)
	}
}

func TestPartitionShortDocument(t *testing.T) {
	ws := Partition("short text", DefaultWindowSize, DefaultWindowOverlap)
	if len(ws) != 1 || ws[0].Text != "short text" {
		t.Fatalf("Partition short = %+v", ws)
	}
}

func TestPartitionOverlap(t *testing.T) {
	var b strings.Builder
	for i := 0; i < 2000; i++ {
		b.WriteString("word ")
	}
	text := b.String() // 10000 bytes
	ws := Partition(text, DefaultWindowSize, DefaultWindowOverlap)
	if len(ws) < 3 {
		t.Fatalf("expected several windows, got %d", len(ws))
	}
	for i, w := range ws {
		if w.Text != text[w.Start:w.End] {
			t.Fatalf("window %d text/offset mismatch", i)
		}
		if i > 0 {
			overlap := ws[i-1].End - w.Start
			if overlap <= 0 {
				t.Errorf("windows %d and %d do not overlap (gap %d)", i-1, i, -overlap)
			}
		}
		if len(w.Text) > DefaultWindowSize {
			t.Errorf("window %d too large: %d", i, len(w.Text))
		}
	}
	if ws[len(ws)-1].End != len(text) {
		t.Fatalf("last window must reach end of text")
	}
}

func TestPartitionNoTokenSplit(t *testing.T) {
	var b strings.Builder
	for i := 0; i < 3000; i++ {
		b.WriteString("abcdefg ")
	}
	text := strings.TrimSpace(b.String())
	for _, w := range Partition(text, 1000, 200) {
		trimmed := strings.TrimSpace(w.Text)
		for _, tok := range strings.Fields(trimmed) {
			if tok != "abcdefg" {
				t.Fatalf("token split across window boundary: %q", tok)
			}
		}
	}
}

func TestPartitionDefaultsOnBadParams(t *testing.T) {
	text := strings.Repeat("x y ", 2000)
	ws := Partition(text, 0, -1)
	if len(ws) == 0 {
		t.Fatal("no windows")
	}
	ws2 := Partition(text, 100, 100) // overlap >= size must be fixed up
	if len(ws2) == 0 {
		t.Fatal("no windows for overlap>=size")
	}
}
