package clickgraph

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// refGraph is the naive reference the frozen CSR is differentially
// tested against: plain nested maps with summed weights.
type refGraph struct {
	fwd map[uint32]map[uint32]uint32
	rev map[uint32]map[uint32]uint32
}

func newRef() *refGraph {
	return &refGraph{fwd: map[uint32]map[uint32]uint32{}, rev: map[uint32]map[uint32]uint32{}}
}

func (r *refGraph) add(c, s, w uint32) {
	if r.fwd[c] == nil {
		r.fwd[c] = map[uint32]uint32{}
	}
	if r.rev[s] == nil {
		r.rev[s] = map[uint32]uint32{}
	}
	r.fwd[c][s] += w
	r.rev[s][c] += w
}

// buildRandom stages a random edge list (with duplicates and zero-degree
// nodes) into both a Graph and the reference.
func buildRandom(rng *rand.Rand, nC, nS, nEdges int) (*Graph, *refGraph) {
	g := New()
	ref := newRef()
	for c := 0; c < nC; c++ {
		g.InternConcept(fmt.Sprintf("c%d", c))
	}
	for s := 0; s < nS; s++ {
		g.InternStory(s)
	}
	for e := 0; e < nEdges; e++ {
		c := uint32(rng.Intn(nC))
		s := uint32(rng.Intn(nS))
		w := uint32(1 + rng.Intn(6))
		g.AddClicksID(c, s, w)
		ref.add(c, s, w)
	}
	return g, ref
}

// checkAgainstRef verifies every row of both sides, plus seeks for present
// and absent edges.
func checkAgainstRef(t *testing.T, g *Graph, ref *refGraph) {
	t.Helper()
	edges := 0
	for c := 0; c < g.NumConcepts(); c++ {
		want := ref.fwd[uint32(c)]
		got := map[uint32]uint32{}
		prev := int64(-1)
		g.VisitConcept(uint32(c), func(s, w uint32) {
			if int64(s) <= prev {
				t.Fatalf("concept %d: neighbors not strictly ascending at %d", c, s)
			}
			prev = int64(s)
			got[s] = w
		})
		if len(got) != len(want) {
			t.Fatalf("concept %d: got %d neighbors, want %d", c, len(got), len(want))
		}
		for s, w := range want {
			if got[s] != w {
				t.Fatalf("concept %d story %d: weight %d, want %d", c, s, got[s], w)
			}
			if cw, ok := g.Clicks(uint32(c), s); !ok || cw != w {
				t.Fatalf("Clicks(%d,%d) = %d,%v want %d,true", c, s, cw, ok, w)
			}
		}
		if g.ConceptDegree(uint32(c)) != len(want) {
			t.Fatalf("concept %d degree %d want %d", c, g.ConceptDegree(uint32(c)), len(want))
		}
		edges += len(want)
	}
	for s := 0; s < g.NumStories(); s++ {
		want := ref.rev[uint32(s)]
		got := map[uint32]uint32{}
		g.VisitStory(uint32(s), func(c, w uint32) { got[c] = w })
		if len(got) != len(want) {
			t.Fatalf("story %d: got %d neighbors, want %d", s, len(got), len(want))
		}
		for c, w := range want {
			if got[c] != w {
				t.Fatalf("story %d concept %d: weight %d, want %d", s, c, got[c], w)
			}
		}
	}
	if g.Stats().Edges != edges {
		t.Fatalf("Stats().Edges = %d, want %d", g.Stats().Edges, edges)
	}
	// Absent-edge seeks, including ids past every neighbor.
	if _, ok := g.Clicks(0, uint32(g.NumStories())); ok {
		t.Fatal("Clicks out of universe reported present")
	}
}

func TestFreezeDifferentialRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	shapes := []struct{ nC, nS, nE int }{
		{1, 1, 1},      // single edge
		{5, 3, 0},      // all rows empty
		{4, 300, 40},   // degree-1 dominated
		{3, 2000, 900}, // dup-heavy
		{50, 400, 3000},
		{2, 130, 4000}, // dense: forces bitmap + skip rows
	}
	for _, sh := range shapes {
		g, ref := buildRandom(rng, sh.nC, sh.nS, sh.nE)
		g.FreezeWorkers(0)
		checkAgainstRef(t, g, ref)
	}
}

// TestFreezeRandomDegreeDistributions is the property test over random
// degree shapes: power-law row sizes spanning the bitmap/Golomb crossover
// and the skip-table threshold.
func TestFreezeRandomDegreeDistributions(t *testing.T) {
	rng := rand.New(rand.NewSource(1009))
	for trial := 0; trial < 20; trial++ {
		nC := 1 + rng.Intn(40)
		nS := 1 + rng.Intn(3000)
		nE := rng.Intn(5000)
		g, ref := buildRandom(rng, nC, nS, nE)
		g.FreezeWorkers(1 + rng.Intn(8))
		checkAgainstRef(t, g, ref)
	}
}

// TestBitmapCrossover pins the representation choice: a row spanning the
// whole universe must freeze as a bitmap, a sparse row must not, and both
// must decode identically to the reference.
func TestBitmapCrossover(t *testing.T) {
	g := New()
	ref := newRef()
	g.InternConcept("dense")
	g.InternConcept("sparse")
	for s := 0; s < 256; s++ {
		g.InternStory(s)
	}
	for s := 0; s < 256; s++ { // full row: bitmap wins
		g.AddClicksID(0, uint32(s), 1)
		ref.add(0, uint32(s), 1)
	}
	for s := 0; s < 256; s += 64 { // 4 spread neighbors: gaps win
		g.AddClicksID(1, uint32(s), 2)
		ref.add(1, uint32(s), 2)
	}
	g.Freeze()
	if g.Stats().BitmapRows == 0 {
		t.Fatal("expected at least one bitmap row")
	}
	if !g.fwd.isBitmap(0) {
		t.Fatal("dense row not stored as bitmap")
	}
	if g.fwd.isBitmap(1) {
		t.Fatal("sparse row stored as bitmap")
	}
	checkAgainstRef(t, g, ref)
}

// TestSkipSeek exercises the skip table: a long gap row must seek to every
// neighbor and reject every absent id, landing inside the right restart
// span.
func TestSkipSeek(t *testing.T) {
	g := New()
	g.InternConcept("long")
	n := 10 * skipSpan
	for s := 0; s < 3*n; s++ {
		g.InternStory(s)
	}
	present := map[uint32]uint32{}
	for i := 0; i < n; i++ {
		s := uint32(3 * i) // stride keeps gaps cheap: stays a gap row
		w := uint32(1 + i%5)
		g.AddClicksID(0, s, w)
		present[s] = w
	}
	g.Freeze()
	if g.fwd.isBitmap(0) {
		t.Skip("row froze as bitmap; stride too dense for this universe")
	}
	if len(g.fwd.skipRows) != 1 || g.fwd.skipRows[0] != 0 {
		t.Fatalf("skipRows = %v, want [0]", g.fwd.skipRows)
	}
	wantEntries := (n - 1) / skipSpan
	if got := int(g.fwd.skipIdx[1] - g.fwd.skipIdx[0]); got != wantEntries {
		t.Fatalf("skip entries = %d, want %d", got, wantEntries)
	}
	for s := uint32(0); s < uint32(3*n); s++ {
		w, ok := g.Clicks(0, s)
		if want, inSet := present[s]; inSet {
			if !ok || w != want {
				t.Fatalf("Clicks(0,%d) = %d,%v want %d,true", s, w, ok, want)
			}
		} else if ok {
			t.Fatalf("Clicks(0,%d) reported present", s)
		}
	}
}

// TestFreezeWorkerEquivalence: the frozen bytes must be identical at any
// worker count — chunk streams, offsets, and skip tables byte for byte.
func TestFreezeWorkerEquivalence(t *testing.T) {
	build := func(workers int) *Graph {
		rng := rand.New(rand.NewSource(7))
		g, _ := buildRandom(rng, 60, 2500, 20000)
		g.FreezeWorkers(workers)
		return g
	}
	base := build(1)
	for _, w := range []int{4, 0} {
		other := build(w)
		for side := 0; side < 2; side++ {
			a, b := &base.fwd, &other.fwd
			if side == 1 {
				a, b = &base.rev, &other.rev
			}
			if len(a.chunks) != len(b.chunks) {
				t.Fatalf("workers=%d side=%d chunk counts differ", w, side)
			}
			for ci := range a.chunks {
				if !bytes.Equal(a.chunks[ci], b.chunks[ci]) {
					t.Fatalf("workers=%d side=%d chunk %d differs", w, side, ci)
				}
			}
			if !uint32sEqual(a.off, b.off) || !uint32sEqual(a.skipRows, b.skipRows) ||
				!uint32sEqual(a.skipIdx, b.skipIdx) || !uint32sEqual(a.skipNbr, b.skipNbr) ||
				!uint32sEqual(a.skipOff, b.skipOff) {
				t.Fatalf("workers=%d side=%d tables differ", w, side)
			}
		}
		if base.Stats() != other.Stats() {
			t.Fatalf("workers=%d stats differ: %+v vs %+v", w, base.Stats(), other.Stats())
		}
	}
}

// TestFrozenRatio pins the compression contract at a small ORCAS-shaped
// scale: frozen adjacency ≤ 35% of the raw 12-byte edge list.
func TestFrozenRatio(t *testing.T) {
	g := Synthesize(SynthConfig{Seed: 42, Stories: 20_000, Concepts: 1_000}, 0)
	g.FreezeWorkers(0)
	st := g.Stats()
	if st.Edges < 50_000 {
		t.Fatalf("synth produced only %d edges", st.Edges)
	}
	ratio := float64(st.FrozenBytes) / float64(st.RawBytes)
	if ratio > 0.35 {
		t.Fatalf("frozen ratio %.3f > 0.35 (frozen=%d raw=%d)", ratio, st.FrozenBytes, st.RawBytes)
	}
}

func TestFreezeTwicePanics(t *testing.T) {
	g := New()
	g.AddClicks("a", 1, 2)
	g.Freeze()
	defer func() {
		if recover() == nil {
			t.Fatal("second Freeze did not panic")
		}
	}()
	g.Freeze()
}

func uint32sEqual(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
