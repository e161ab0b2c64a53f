package textproc

import (
	"strings"
	"testing"
)

// stripCases are the inputs of the table test and the seeds of FuzzStripHTML:
// ordinary markup, then tags, comments, entities and script blocks cut off at
// every stage, and script bodies whose lower-casing changes their length.
var stripCases = []string{
	`<html><body><p>Hello <b>world</b>!</p></body></html>`,
	`<p>visible</p><script>var x = 1;</script><p>more</p>`,
	`before<!-- comment -->after`,
	`Bush &amp; Clinton &lt;debate&gt; &#65;`,
	`plain text no markup`,
	``,
	`<p unclosed`,
	`text <!-- unterminated`,
	`<`, `a<`, `<!-`, `<!--`, `<!-- --`, `&`, `a&`, `&#`, `&#6`, `&amp`, `&;`, `&#;`, `&#0;`, `&#65536;`, `&#55296;`, `&bogus;&`,
	`<script`, `<script>`, `<script>x</scr`, `<script>x</script`, `<SCRIPT>x</ScRiPt >y`, `<style>a</script>b</style>c`,
	"<script>\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff</script>after",
	"<style>ȺȺȺȺȺȺȺȺȺȺȺȺ</style>after",
	"<p>caf\u00e9 &mdash; na\xefve</p>",
}

// checkStrip holds the two entry points of the one walker to each other and
// the offset map to its source: same text, one offset per text byte, offsets
// nondecreasing and inside the input.
func checkStrip(t *testing.T, html string) {
	t.Helper()
	res := StripHTMLMapped(html)
	if want := StripHTML(html); res.Text != want {
		t.Fatalf("StripHTMLMapped text differs from StripHTML for %q:\n got %q\nwant %q", html, res.Text, want)
	}
	if len(res.srcOffsets) != len(res.Text) {
		t.Fatalf("%d offsets for %d text bytes on %q", len(res.srcOffsets), len(res.Text), html)
	}
	prev := 0
	for i, off := range res.srcOffsets {
		if off < prev || off >= len(html) {
			t.Fatalf("offset %d of text byte %d follows %d in a %d-byte input %q", off, i, prev, len(html), html)
		}
		prev = off
	}
}

func TestStripHTMLMappedMatchesStripHTML(t *testing.T) {
	for _, in := range stripCases {
		checkStrip(t, in)
	}
	if got := StripHTML("<script>\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff</script>after"); got != "after" {
		t.Fatalf("script body that is not UTF-8 stripped to %q", got)
	}
}

// FuzzStripHTML feeds the walker what the network can: /v1/annotate and
// /v1/render take html:true bodies. No input may panic it, however its
// tags, entities and comments are truncated.
func FuzzStripHTML(f *testing.F) {
	for _, in := range stripCases {
		f.Add(in)
	}
	f.Fuzz(checkStrip)
}

// StripHTML shares StripHTMLMapped's walker but not its offset map.
func TestStripHTMLAllocatesNoOffsets(t *testing.T) {
	html := strings.Repeat(`<p>Bush &amp; Clinton <b>debate</b></p>`, 64)
	plain := testing.AllocsPerRun(20, func() { StripHTML(html) })
	mapped := testing.AllocsPerRun(20, func() { StripHTMLMapped(html) })
	if plain != 1 || mapped <= plain {
		t.Fatalf("StripHTML allocates %v times (want 1: the text), StripHTMLMapped %v", plain, mapped)
	}
}

func TestSourceSpanRoundtrip(t *testing.T) {
	html := `<p>The <b>Iraq war</b> continued in <i>Baghdad</i>.</p>`
	res := StripHTMLMapped(html)
	for _, phrase := range []string{"Iraq war", "Baghdad", "continued"} {
		at := strings.Index(res.Text, phrase)
		if at < 0 {
			t.Fatalf("%q not in stripped text %q", phrase, res.Text)
		}
		lo, hi := res.SourceSpan(at, at+len(phrase))
		if html[lo:hi] != phrase {
			t.Errorf("SourceSpan(%q) = html[%d:%d] = %q", phrase, lo, hi, html[lo:hi])
		}
	}
}

func TestSourceSpanAcrossEntities(t *testing.T) {
	html := `A &amp; B corporation`
	res := StripHTMLMapped(html)
	at := strings.Index(res.Text, "corporation")
	lo, hi := res.SourceSpan(at, at+len("corporation"))
	if html[lo:hi] != "corporation" {
		t.Fatalf("entity offset shift: html[%d:%d] = %q", lo, hi, html[lo:hi])
	}
	// The decoded "&" maps back to the start of the entity.
	amp := strings.Index(res.Text, "&")
	if got := res.SourceOffset(amp); html[got] != '&' {
		t.Fatalf("decoded entity maps to %q", html[got])
	}
}

func TestSourceOffsetClamping(t *testing.T) {
	res := StripHTMLMapped("<p>hi</p>")
	if got := res.SourceOffset(-5); got != res.SourceOffset(0) {
		t.Fatalf("negative offset not clamped: %d", got)
	}
	_ = res.SourceOffset(10_000) // must not panic
	lo, hi := res.SourceSpan(3, 3)
	if hi < lo {
		t.Fatalf("empty span inverted: %d > %d", lo, hi)
	}
	empty := StripHTMLMapped("")
	if empty.SourceOffset(0) != 0 {
		t.Fatal("empty input offset")
	}
}

func TestSourceSpanDetectionEndToEnd(t *testing.T) {
	// A realistic flow: strip, find a token span in text, wrap it in the
	// original HTML — the wrapped bytes must be exactly the surface text.
	html := `<div>Email <a href="mailto:x">team@example.org</a> today.</div>`
	res := StripHTMLMapped(html)
	at := strings.Index(res.Text, "team@example.org")
	lo, hi := res.SourceSpan(at, at+len("team@example.org"))
	if html[lo:hi] != "team@example.org" {
		t.Fatalf("html[%d:%d] = %q", lo, hi, html[lo:hi])
	}
	wrapped := html[:lo] + "<span>" + html[lo:hi] + "</span>" + html[hi:]
	if !strings.Contains(wrapped, "<span>team@example.org</span>") {
		t.Fatalf("wrap failed: %s", wrapped)
	}
}
