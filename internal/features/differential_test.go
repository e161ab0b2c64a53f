package features

import (
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// refFields is the pre-pooling reference extraction: string-keyed resource
// calls, fresh strings.Fields splits per feature. The pooled Fields must
// reproduce it exactly.
func refFields(e *Extractor, concept string) Fields {
	var f Fields
	if e.log != nil {
		f.FreqExact = math.Log1p(float64(e.log.FreqExact(concept)))
		f.FreqPhraseContained = math.Log1p(float64(e.log.FreqPhraseContainedTerms(strings.Fields(concept))))
	}
	if e.units != nil {
		f.UnitScore = e.units.Score(concept)
		f.Subconcepts = float64(e.units.SubconceptCountTerms(strings.Fields(concept), SubconceptMinScore))
	}
	if e.engine != nil {
		f.SearchEnginePhrase = math.Log1p(float64(e.engine.ResultCount(concept)))
	}
	f.ConceptSize = float64(countTerms(concept))
	f.NumberOfChars = float64(len(concept))
	if e.dict != nil {
		f.HighLevelType = e.dict.HighLevelType(concept)
	}
	if e.wiki != nil {
		f.WikiWordCount = math.Log1p(float64(e.wiki.WordCount(concept)))
	}
	return f
}

// TestDifferentialFields pins the pooled extraction to the reference for
// every world concept and for edge-case inputs, serially and through
// BatchFields at several GOMAXPROCS widths (pooled scratch must not leak
// between workers).
func TestDifferentialFields(t *testing.T) {
	f := newFixture(t)
	concepts := make([]string, 0, len(f.w.Concepts)+4)
	for i := range f.w.Concepts {
		concepts = append(concepts, f.w.Concepts[i].Name)
	}
	concepts = append(concepts, "", "   ", "one", "unknown phrase of many many terms")
	want := make([]Fields, len(concepts))
	for i, c := range concepts {
		want[i] = refFields(f.ext, c)
	}
	for i, c := range concepts {
		if got := f.ext.Fields(c); got != want[i] {
			t.Fatalf("Fields(%q) = %+v, want %+v", c, got, want[i])
		}
	}
	for _, procs := range []int{1, 4, runtime.NumCPU()} {
		setGOMAXPROCS(t, procs)
		if got := f.ext.BatchFields(concepts); !reflect.DeepEqual(got, want) {
			t.Fatalf("BatchFields at GOMAXPROCS=%d diverged from reference", procs)
		}
	}
}

// setGOMAXPROCS is the root package's helper (parallel_test.go).
func setGOMAXPROCS(t *testing.T, n int) {
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// TestAppendFields pins the allocation-free splitter to strings.Fields.
func TestAppendFields(t *testing.T) {
	cases := []string{
		"", " ", "a", "a b", "  a  b  ", "a\tb\nc", "tab\t", "\vx\f",
		"café au lait", "non breaking", "ends ",
	}
	for _, s := range cases {
		want := strings.Fields(s)
		got := appendFields(nil, s)
		if len(got) != len(want) {
			t.Fatalf("appendFields(%q) = %q, want %q", s, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("appendFields(%q)[%d] = %q, want %q", s, i, got[i], want[i])
			}
		}
	}
	// Reuses dst capacity.
	buf := make([]string, 0, 8)
	out := appendFields(buf, "x y z")
	if &out[0] != &buf[:1][0] {
		t.Fatal("appendFields did not reuse dst backing array")
	}
}
