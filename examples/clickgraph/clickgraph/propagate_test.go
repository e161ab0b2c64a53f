package clickgraph

import (
	"math"
	"testing"
)

func synthFrozen(tb testing.TB, stories, concepts int) *Graph {
	tb.Helper()
	g := Synthesize(SynthConfig{Seed: 42, Stories: stories, Concepts: concepts}, 0)
	g.FreezeWorkers(0)
	return g
}

// TestPropagateParallelEquivalence is the differential determinism test:
// after seeding and sweeping, the score vectors must be byte-identical at
// Workers ∈ {1, 4, all} — compared through math.Float64bits, not epsilon.
func TestPropagateParallelEquivalence(t *testing.T) {
	g := synthFrozen(t, 8_000, 600)
	run := func(workers int) ([]float64, []float64) {
		p := NewPropagator(g)
		p.SeedConcept(3, 1)
		p.SeedConcept(17, 0.5)
		p.SweepN(6, workers)
		return p.ConceptScores(), p.StoryScores()
	}
	baseC, baseS := run(1)
	for _, w := range []int{4, 0} {
		c, s := run(w)
		for i := range baseC {
			if math.Float64bits(c[i]) != math.Float64bits(baseC[i]) {
				t.Fatalf("workers=%d concept %d: %x != %x", w, i, math.Float64bits(c[i]), math.Float64bits(baseC[i]))
			}
		}
		for i := range baseS {
			if math.Float64bits(s[i]) != math.Float64bits(baseS[i]) {
				t.Fatalf("workers=%d story %d differs", w, i)
			}
		}
	}
}

// TestPropagateUniformEquivalence repeats the bit-identity check on the
// dense-frontier path (SeedUniform touches every row, driving the dense
// merge).
func TestPropagateUniformEquivalence(t *testing.T) {
	g := synthFrozen(t, 5_000, 400)
	run := func(workers int) []float64 {
		p := NewPropagator(g)
		p.SeedUniform()
		p.SweepN(4, workers)
		return p.ConceptScores()
	}
	base := run(1)
	for _, w := range []int{4, 0} {
		c := run(w)
		for i := range base {
			if math.Float64bits(c[i]) != math.Float64bits(base[i]) {
				t.Fatalf("workers=%d concept %d differs", w, i)
			}
		}
	}
}

// TestPropagateMassDecays: total mass after a sweep is at most decay times
// the input mass (evidence weights are < 1, empty rows absorb).
func TestPropagateMassDecays(t *testing.T) {
	g := synthFrozen(t, 2_000, 200)
	p := NewPropagator(g)
	p.SeedUniform()
	prev := 1.0
	for i := 0; i < 6; i++ {
		p.Sweep(0)
		side := p.StoryScores()
		if p.OnConcepts() {
			side = p.ConceptScores()
		}
		total := 0.0
		for _, v := range side {
			total += v
		}
		if total > prev*DefaultDecay*1.0000001 {
			t.Fatalf("sweep %d: mass %.9f exceeds decay bound %.9f", i, total, prev*DefaultDecay)
		}
		if i < 2 && total == 0 {
			t.Fatalf("sweep %d: all mass vanished", i)
		}
		prev = total
	}
	if p.Sweeps() != 6 {
		t.Fatalf("Sweeps() = %d", p.Sweeps())
	}
}

// TestPropagatorReset: a reset propagator reproduces the original run
// bit-for-bit (pooled shard state fully cleared).
func TestPropagatorReset(t *testing.T) {
	g := synthFrozen(t, 2_000, 200)
	p := NewPropagator(g)
	p.SeedConcept(1, 1)
	p.SweepN(4, 0)
	first := append([]float64(nil), p.ConceptScores()...)
	p.Reset()
	p.SeedConcept(1, 1)
	p.SweepN(4, 0)
	for i, v := range p.ConceptScores() {
		if math.Float64bits(v) != math.Float64bits(first[i]) {
			t.Fatalf("concept %d differs after Reset", i)
		}
	}
}

// TestRelatedFindsCoClicked: on a hand-built graph, the concept sharing
// a clicked story with the query must outrank one connected only at two
// hops, and unrelated components must not appear.
func TestRelatedFindsCoClicked(t *testing.T) {
	g := New()
	// Component 1: a,b co-clicked on story 0 (heavily); b,c share story 1.
	g.AddClicks("a", 0, 5)
	g.AddClicks("b", 0, 5)
	g.AddClicks("b", 1, 2)
	g.AddClicks("c", 1, 2)
	// Component 2: d alone on story 2.
	g.AddClicks("d", 2, 4)
	g.Freeze()

	got := g.Related("a", 10)
	if len(got) < 2 {
		t.Fatalf("Related(a) = %v, want ≥2 results", got)
	}
	if got[0].Name != "b" {
		t.Fatalf("Related(a)[0] = %s, want b", got[0].Name)
	}
	for _, r := range got {
		if r.Name == "d" {
			t.Fatal("unconnected concept d in Related(a)")
		}
		if r.Name == "a" {
			t.Fatal("seed concept returned by Related")
		}
	}
	foundC := false
	for _, r := range got {
		foundC = foundC || r.Name == "c"
	}
	if !foundC {
		t.Fatal("two-hop concept c missing from Related(a)")
	}
}

// TestRewriteEvidenceMultiplier: a rewrite supported by two co-clicked
// stories must beat one supported by a single story of the same strength.
func TestRewriteEvidenceMultiplier(t *testing.T) {
	g := New()
	// q and "two" share stories 0 and 1; q and "one" share only story 2.
	for s, pair := range [][2]string{{"q", "two"}, {"q", "two"}, {"q", "one"}} {
		g.AddClicks(pair[0], s, 3)
		g.AddClicks(pair[1], s, 3)
	}
	g.Freeze()
	got := g.Rewrite("q", 5)
	if len(got) != 2 {
		t.Fatalf("Rewrite(q) = %v, want 2 results", got)
	}
	if got[0].Name != "two" || got[1].Name != "one" {
		t.Fatalf("Rewrite(q) order = [%s %s], want [two one]", got[0].Name, got[1].Name)
	}
	if !(got[0].Score > got[1].Score) {
		t.Fatalf("evidence multiplier did not separate scores: %v", got)
	}
}

// TestQueryScratchReuse: repeated queries through the pool must return
// identical results (released scratch fully zeroed) and never alias.
func TestQueryScratchReuse(t *testing.T) {
	g := synthFrozen(t, 1_000, 120)
	name := g.ConceptName(0)
	first := g.Related(name, 8)
	for i := 0; i < 10; i++ {
		other := g.Related(g.ConceptName(uint32(1+i%20)), 8)
		_ = other
		again := g.Related(name, 8)
		if len(again) != len(first) {
			t.Fatalf("iteration %d: result length drifted", i)
		}
		for j := range again {
			if again[j] != first[j] {
				t.Fatalf("iteration %d: result %d drifted: %+v vs %+v", i, j, again[j], first[j])
			}
		}
	}
	rw := g.Rewrite(name, 8)
	rw2 := g.Rewrite(name, 8)
	if len(rw) != len(rw2) {
		t.Fatal("Rewrite not reproducible through pooled scratch")
	}
	for j := range rw {
		if rw[j] != rw2[j] {
			t.Fatalf("Rewrite result %d drifted", j)
		}
	}
}

// TestSynthDeterministicAcrossWorkers: the synthesized edge list is the
// same at any worker count, and edge volume tracks the configured scale.
func TestSynthDeterministicAcrossWorkers(t *testing.T) {
	cfg := SynthConfig{Seed: 7, Stories: 3_000, Concepts: 300}
	base := Synthesize(cfg, 1)
	for _, w := range []int{4, 0} {
		g := Synthesize(cfg, w)
		if !uint32sEqual(g.srcs, base.srcs) || !uint32sEqual(g.dsts, base.dsts) || !uint32sEqual(g.wts, base.wts) {
			t.Fatalf("workers=%d: synthesized edges differ", w)
		}
	}
	if len(base.srcs) < 3_000 {
		t.Fatalf("synth too sparse: %d staged edges", len(base.srcs))
	}
	// Unknown concepts answer empty, not panic.
	base.FreezeWorkers(0)
	if got := base.Related("no-such-concept", 3); got != nil {
		t.Fatalf("Related(unknown) = %v", got)
	}
}

var sinkScores []Scored

// BenchmarkRelated measures the pooled query path (steady-state allocs are
// the result slice only).
func BenchmarkRelated(b *testing.B) {
	g := synthFrozen(b, 10_000, 800)
	name := g.ConceptName(2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkScores = g.Related(name, 10)
	}
}
