package main

import (
	"reflect"
	"testing"

	"contextrank/internal/detect"
	"contextrank/internal/framework"
	"contextrank/internal/newsgen"
	"contextrank/internal/serve"
	"contextrank/internal/world"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []int64 {
		s := make([]int64, n)
		for i := range s {
			s[i] = int64(i + 1)
		}
		return s
	}
	for _, tc := range []struct {
		n    int
		q    float64
		want int64
		ok   bool
	}{
		{100, 0.5, 50, true},
		{100, 0.9, 90, true},    // exactly ten beyond
		{100, 0.99, 99, false},  // one beyond
		{1000, 0.99, 990, true}, // exactly ten beyond
		{1000, 0.999, 999, false},
		{10001, 0.999, 9991, true},
		{1, 0.5, 1, false},
	} {
		got, ok := percentile(seq(tc.n), tc.q)
		if got != tc.want || ok != tc.ok {
			t.Errorf("percentile(1..%d, %v) = %d, %v; want %d, %v", tc.n, tc.q, got, ok, tc.want, tc.ok)
		}
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Error("empty sample supports a percentile")
	}
	// p99.9 of 1,000 samples falls back to p99, the highest supported.
	if got := supported(seq(1000), 0.999); got != 990 {
		t.Errorf("supported(1..1000, 0.999) = %d, want 990", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
}

func TestZipfRepeatsPerSeed(t *testing.T) {
	draw := func(seed int64) []int {
		z := newZipf(seed, zipfS, 512)
		out := make([]int, 1000)
		for i := range out {
			out[i] = z.next()
			if out[i] < 0 || out[i] >= 512 {
				t.Fatalf("rank %d out of range", out[i])
			}
		}
		return out
	}
	a, b, c := draw(11), draw(11), draw(12)
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed, different sequence")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds, same sequence")
	}
	head := 0
	for _, r := range a {
		if r < 8 {
			head++
		}
	}
	if head < 300 {
		t.Errorf("only %d of 1000 draws in the top 8 ranks: not Zipf(1.1)", head)
	}
}

func TestCycleAndSweepPartitionThePool(t *testing.T) {
	seen := map[int]int{}
	for id := 0; id < 2; id++ {
		next := cycle(id, 2, 10)
		for i := 0; i < 10; i++ { // two laps of this client's five
			seen[next()]++
		}
		sw := sweep(id, 2, 10)
		if len(sw) != 5 || sw[0] < sw[4] {
			t.Errorf("sweep(%d) = %v: want this client's five, coldest first", id, sw)
		}
	}
	for d := 0; d < 10; d++ {
		if seen[d] != 2 {
			t.Errorf("doc %d fetched %d times in two laps, want 2", d, seen[d])
		}
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	spans := []span{
		{Name: "request", Start: 0, End: 100, Parent: -1},
		{Name: "handler", Start: 200, End: 280, Parent: 0}, // measured by its own call
		{Name: "annotate", Start: 300, End: 350, Parent: 1},
		{Name: "detect", Start: 400, End: 430, Parent: 2},
		{Name: "stem", Start: 500, End: 510, Parent: 2},
		{Name: "request", Start: 1000, End: 1040, Parent: -1},
	}
	lt := selfTimes(spans)
	for name, want := range map[string]layerTime{
		"request":  {count: 2, total: 140, own: 60}, // 100-80 + 40
		"handler":  {count: 1, total: 80, own: 30},
		"annotate": {count: 1, total: 50, own: 10},
		"detect":   {count: 1, total: 30, own: 30},
		"stem":     {count: 1, total: 10, own: 10},
	} {
		if lt[name] != want {
			t.Errorf("%s: %+v, want %+v", name, lt[name], want)
		}
	}
	// Merging two recorders keeps each trace's parent links intact.
	a, b := &recorder{spans: spans[:2]}, &recorder{spans: []span{{Name: "x", Parent: -1}, {Name: "y", Parent: 0}}}
	m := merge(a, nil, b)
	if len(m) != 4 || m[1].Parent != 0 || m[2].Parent != -1 || m[3].Parent != 2 {
		t.Errorf("merge rebased parents wrongly: %+v", m)
	}
}

func TestPrecisionAtTopOnAHandBuiltStory(t *testing.T) {
	concept := func(name string) *world.Concept { return &world.Concept{Name: name} }
	st := &newsgen.Story{Mentions: []newsgen.Mention{
		{Concept: concept("global warming"), Relevant: true},
		{Concept: concept("texas"), Relevant: false},
		{Concept: concept("carbon tax"), Relevant: true},
	}}
	ann := func(norm string, kind detect.Kind) framework.Annotation {
		return framework.Annotation{Detection: detect.Detection{Norm: norm, Kind: kind}}
	}
	anns := []framework.Annotation{
		ann("press@example.com", detect.KindPattern), // patterns are not ranked
		ann("global warming", detect.KindConcept),
		ann("global warming", detect.KindConcept), // second occurrence, same concept
		ann("texas", detect.KindNamed),            // mentioned but off-topic
		ann("weather", detect.KindConcept),        // not a mention at all
	}
	rel, ret := precisionAtTop(st, anns)
	if rel != 1 || ret != 3 {
		t.Errorf("precisionAtTop = %d/%d, want 1/3", rel, ret)
	}
}

func TestSameAnnotationsAndConcepts(t *testing.T) {
	direct := []framework.Annotation{
		{Detection: detect.Detection{Text: "Texas", Norm: "texas", Kind: detect.KindConcept, Start: 10, End: 15}, Score: 1.5, Relevance: 0.25},
		{Detection: detect.Detection{Text: "a@b.c", Norm: "a@b.c", Kind: detect.KindPattern, PatternType: "email", Start: 0, End: 5}},
	}
	served := []serve.AnnotationJSON{
		{Text: "Texas", Concept: "texas", Kind: "concept", Score: 1.5, Relevance: 0.25, Start: 10, End: 15},
		{Text: "a@b.c", Concept: "a@b.c", Kind: "pattern", Type: "email", Start: 0, End: 5},
	}
	if err := sameAnnotations(served, direct); err != nil {
		t.Errorf("equal lists reported different: %v", err)
	}
	served[0].Score = 1.25
	if err := sameAnnotations(served, direct); err == nil {
		t.Error("a different score went unnoticed")
	}
	if err := sameAnnotations(served[:1], direct); err == nil {
		t.Error("a missing annotation went unnoticed")
	}

	body := []byte(`<span class="shortcut" data-concept="a@b.c" data-score="0.000">a@b.c</span> and <span data-concept="texas">Texas</span>`)
	got := dataConcepts(body)
	if !reflect.DeepEqual(got, []string{"a@b.c", "texas"}) {
		t.Fatalf("dataConcepts = %v", got)
	}
	if err := sameConcepts(got, direct, 20); err != nil {
		t.Errorf("render order is by Start: %v", err)
	}
	if err := sameConcepts(got[:1], direct, 20); err == nil {
		t.Error("a missing shortcut went unnoticed")
	}
}

func TestWorseBy(t *testing.T) {
	if got := worseBy(100, 110, "lower"); got != 0.1 {
		t.Errorf("latency up 10%%: %v", got)
	}
	if got := worseBy(100, 90, "higher"); got != 0.1 {
		t.Errorf("throughput down 10%%: %v", got)
	}
	if got := worseBy(100, 120, "higher"); got >= 0 {
		t.Errorf("throughput up reads as worse: %v", got)
	}
}
