package detect

import (
	"math"
	"reflect"
	"testing"

	"contextrank/internal/querylog"
	"contextrank/internal/units"
)

// fillerCounts adds unrelated single-term traffic so phrase probabilities are
// small enough for mutual information to validate multi-term units, as in a
// real query log.
func fillerCounts(counts map[string]int) map[string]int {
	for i := 0; i < 50; i++ {
		counts["filler"+string(rune('a'+i%26))+string(rune('a'+i/26))] = 100
	}
	return counts
}

func smallUnitSet(t *testing.T) *units.Set {
	t.Helper()
	return units.Extract(querylog.FromCounts(fillerCounts(map[string]int{
		"global warming": 500,
		"global":         200,
		"warming":        50,
	})), units.Config{MinMI: 0.5})
}

// TestFilterCompactsInPlace pins filter's ownership contract: it compacts
// through ds[:0], so the returned slice shares the input's backing array and
// survivors are moved to the front. A caller that does not own the backing
// array would see its data clobbered — which is exactly why Detect hands
// filter the pooled accumulator it owns.
func TestFilterCompactsInPlace(t *testing.T) {
	in := []Detection{
		{Norm: "climate change", Kind: KindConcept, Start: 0, End: 14},
		{Norm: "of the", Kind: KindConcept, Start: 15, End: 21}, // stop-only: dropped
		{Norm: "a", Kind: KindConcept, Start: 22, End: 23},      // single char: dropped
		{Norm: "acme corp", Kind: KindNamed, Start: 24, End: 33},
	}
	out := filter(in)
	if len(out) != 2 {
		t.Fatalf("filter kept %d detections, want 2: %+v", len(out), out)
	}
	if &out[0] != &in[0] {
		t.Fatal("filter must reuse the input's backing array (in-place compaction)")
	}
	if in[0].Norm != "climate change" || in[1].Norm != "acme corp" {
		t.Fatalf("survivors not compacted to the front: %q, %q", in[0].Norm, in[1].Norm)
	}
}

// TestDetectResultsDoNotAliasScratch pins Detect's ownership contract: the
// returned slice is freshly allocated, so later Detect calls (which reuse
// pooled scratch buffers) must not mutate earlier results.
func TestDetectResultsDoNotAliasScratch(t *testing.T) {
	w, dict, us := testResources(t)
	p := New(dict, us)
	text := "News about " + w.Concepts[10].Name + ", mail a@b.com for details."
	first := p.Detect(text)
	if len(first) == 0 {
		t.Fatal("expected detections in seed document")
	}
	snapshot := make([]Detection, len(first))
	copy(snapshot, first)
	for i := 0; i < 8; i++ {
		p.Detect("Different text about " + w.Concepts[i].Name + " with c@d.com and extra words to regrow every scratch buffer.")
	}
	if !reflect.DeepEqual(first, snapshot) {
		t.Fatalf("earlier Detect result mutated by later calls:\n got %+v\nwant %+v", first, snapshot)
	}
}

// TestDetectEmptyAndPunctOnlyDocs: degenerate documents produce no
// detections and no panics (the token-view and matcher paths all see
// zero-length inputs).
func TestDetectEmptyAndPunctOnlyDocs(t *testing.T) {
	_, dict, us := testResources(t)
	p := New(dict, us)
	for _, tc := range []struct{ name, text string }{
		{"empty", ""},
		{"punct only", "?! ... --- ,,, ;; ()"},
		{"whitespace only", "  \n\t  \n"},
	} {
		if ds := p.Detect(tc.text); len(ds) != 0 {
			t.Fatalf("%s doc produced detections: %+v", tc.name, ds)
		}
	}
}

// TestDetectUnknownTokens: a document whose words appear in no vocabulary
// yields nothing — unknown tokens intern to match.NoID and break every trie
// walk instead of producing spurious matches.
func TestDetectUnknownTokens(t *testing.T) {
	_, dict, us := testResources(t)
	p := New(dict, us)
	if ds := p.Detect("zzqx wvblorp klaatu barada nikto"); len(ds) != 0 {
		t.Fatalf("unknown-token doc produced detections: %+v", ds)
	}
}

// TestDetectPhraseLongerThanDoc: a document shorter than the longest indexed
// phrase must not match that phrase or produce out-of-range spans.
func TestDetectPhraseLongerThanDoc(t *testing.T) {
	s := smallUnitSet(t)
	p := &Pipeline{units: s, minUnitScore: 0}
	text := "global"
	for _, d := range p.Detect(text) {
		if d.Norm == "global warming" {
			t.Fatal("matched a phrase longer than the document")
		}
		if d.Start < 0 || d.End > len(text) || d.End <= d.Start {
			t.Fatalf("out-of-range span: %+v", d)
		}
	}
}

// TestUnitFloorBoundary pins the floor comparison: a unit whose score equals
// the floor is annotated (the check is Score < floor, not <=); a floor just
// above the score drops it.
func TestUnitFloorBoundary(t *testing.T) {
	s := smallUnitSet(t)
	u := s.Lookup("global warming")
	if u == nil {
		t.Fatal("'global warming' should be a unit")
	}
	text := "the global warming debate"

	keep := &Pipeline{units: s, minUnitScore: u.Score}
	found := false
	for _, d := range keep.Detect(text) {
		if d.Norm == "global warming" {
			found = true
		}
	}
	if !found {
		t.Fatal("unit with Score == floor must be annotated")
	}

	drop := &Pipeline{units: s, minUnitScore: math.Nextafter(u.Score, 2)}
	for _, d := range drop.Detect(text) {
		if d.Norm == "global warming" {
			t.Fatal("unit below the floor must not be annotated")
		}
	}
}
