package contextrank

import (
	"slices"
	"testing"

	"contextrank/internal/detect"
)

// TestKeywordsLimit: Keywords(doc, k) is the first k distinct concepts of
// the document's ranking, and k <= 0 is all of them.
func TestKeywordsLimit(t *testing.T) {
	s, r := testSystem(t)
	stories := s.Internal().Stories
	doc := stories[0].Text + "\n" + stories[1].Text
	var all []string
	seen := map[string]bool{}
	for _, a := range r.Annotate(doc, 0) {
		if a.Detection.Kind != detect.KindPattern && !seen[a.Detection.Norm] {
			seen[a.Detection.Norm] = true
			all = append(all, a.Detection.Norm)
		}
	}
	if len(all) <= 3 {
		t.Fatalf("the document ranks %d concepts; the limit is not exercised", len(all))
	}
	for _, k := range []int{3, 0, -1} {
		want := all
		if k > 0 {
			want = all[:k]
		}
		if got := r.Keywords(doc, k); !slices.Equal(got, want) {
			t.Fatalf("Keywords(doc, %d) = %q, want %q", k, got, want)
		}
	}
}
