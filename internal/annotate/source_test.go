package annotate

import (
	"strconv"
	"strings"
	"testing"

	"contextrank/internal/detect"
	"contextrank/internal/framework"
	"contextrank/internal/textproc"
)

// shortcutOpen is the head of every span RenderSource inserts for a
// concept annotation: the fuzz target below names its annotations n0, n1,
// ... so each inserted span says which annotation it wraps.
const shortcutOpen = `<span class="shortcut shortcut-concept" data-concept="n`

// FuzzRenderSource feeds /v1/render's html:true path arbitrary markup and
// spans cut from the input bytes (four bytes a span: big-endian start and
// end, taken modulo the stripped text's length plus one). RenderSource must
// not panic; taking its inserted spans back out must give src byte for
// byte; and every source slice it wraps, stripped, must be exactly the text
// its annotation covers — a span ending in a decoded entity wraps the whole
// entity, never the '&' alone.
func FuzzRenderSource(f *testing.F) {
	f.Add(`<p>I love the caf&#233; today</p>`, []byte{0, 13, 0, 18})
	f.Add(`<p>The <b>Iraq</b> war continued.</p>`, []byte{0, 6, 0, 14, 0, 2, 0, 5})
	f.Add(`A &amp; B &lt;corp&gt; &#65;&#66;`, []byte{0, 0, 0, 5, 0, 4, 0, 20, 0, 1, 0, 3})
	f.Add(`<div>Email <a href="mailto:x">team@example.org</a>.</div>`, []byte{0, 8, 0, 24, 0, 0, 0, 40})
	f.Add("na\xefve &mdash; <br>x&", []byte{0, 3, 0, 9, 0, 1, 0, 12})
	f.Fuzz(func(t *testing.T, src string, cuts []byte) {
		if strings.Contains(src, shortcutOpen) {
			t.Skip("src already holds an inserted span's head")
		}
		res := textproc.StripHTMLMapped(src)
		n := len(res.Text) + 1
		var anns []framework.Annotation
		for i := 0; i+4 <= len(cuts) && len(anns) < 8; i += 4 {
			start := (int(cuts[i])<<8 | int(cuts[i+1])) % n
			end := (int(cuts[i+2])<<8 | int(cuts[i+3])) % n
			if start > end {
				start, end = end, start
			}
			anns = append(anns, framework.Annotation{Detection: detect.Detection{
				Text: res.Text[start:end], Norm: "n" + strconv.Itoa(len(anns)),
				Kind: detect.KindConcept, Start: start, End: end,
			}})
		}
		out := NewRenderer(nil).RenderSource(src, res, anns)

		// The head cannot straddle src and an inserted span: it has one '<',
		// at its start, and a wrapped slice has none.
		var rest strings.Builder
		for {
			at := strings.Index(out, shortcutOpen)
			if at < 0 {
				rest.WriteString(out)
				break
			}
			rest.WriteString(out[:at])
			out = out[at+len(shortcutOpen):]
			q := strings.IndexByte(out, '"')
			i, err := strconv.Atoi(out[:max(q, 0)])
			if err != nil || i >= len(anns) {
				t.Fatalf("inserted span names no annotation: %q", out)
			}
			head := `" data-score="0.000">`
			if !strings.HasPrefix(out[q:], head) {
				t.Fatalf("inserted span head malformed: %q", out)
			}
			out = out[q+len(head):]
			end := strings.Index(out, "</span>")
			if end < 0 {
				t.Fatalf("inserted span unclosed: %q", out)
			}
			if got := textproc.StripHTML(out[:end]); got != anns[i].Detection.Text {
				t.Fatalf("annotation %d over %q wraps source %q, which strips to %q", i, anns[i].Detection.Text, out[:end], got)
			}
			rest.WriteString(out[:end])
			out = out[end+len("</span>"):]
		}
		if rest.String() != src {
			t.Fatalf("document altered:\n got %q\nwant %q", rest.String(), src)
		}
	})
}
