package searchsim

// Property tests: Golomb-frozen posting lists must round-trip exactly —
// every doc id, frequency, and position recovered bit for bit through the
// skip-block cursor — for adversarial gap distributions: dense consecutive
// runs, singleton lists, sparse extremes, and documents with maximal
// positions.

import (
	"math/rand"
	"testing"
)

// listView wraps a single posting list (raw or frozen) in a one-segment
// view, the shape every cursor now reads through. The segment width is a
// huge sentinel: these property tests exercise within-segment decoding, and
// a single segment never hands off to a successor.
func listView(raw []postingList, frozen *frozenIndex) *view {
	const width = 1 << 30
	if frozen != nil {
		return &view{segs: []*segment{newFrozenSegment(0, width, frozen)}}
	}
	terms := make([]uint32, len(raw))
	for i := range terms {
		terms[i] = uint32(i)
	}
	return &view{segs: []*segment{newSparseRawSegment(0, width, terms, raw)}}
}

// freezeLists freezes lists as terms 0, 1, ... of one frozen index through
// the production encoder, which picks each term's doc representation.
func freezeLists(lists ...postingList) *frozenIndex {
	return freezeTerms(1, len(lists), func(t int, pl *postingList) { pl.appendPostings(&lists[t], 0) })
}

// cursorDump decodes an entire frozen list through the termCursor, the only
// read path production code uses.
func cursorDump(t *testing.T, v *view, id uint32) (docs []int32, poss [][]int32) {
	t.Helper()
	var c termCursor
	if !c.init(v, id) {
		return nil, nil
	}
	for doc, ok := c.seekGEQ(0); ok; doc, ok = c.seekGEQ(doc + 1) {
		docs = append(docs, doc)
		ps := append([]int32(nil), c.positions()...)
		if int32(len(ps)) != c.freq() {
			t.Fatalf("freq %d disagrees with %d positions (doc %d)", c.freq(), len(ps), doc)
		}
		poss = append(poss, ps)
	}
	return docs, poss
}

// checkRoundTrip freezes pl and verifies the frozen cursor reproduces it,
// both via sequential iteration and via random-order galloping seeks.
func checkRoundTrip(t *testing.T, pl postingList, label string) {
	t.Helper()
	vRaw := listView([]postingList{pl}, nil)
	vFroz := listView(nil, freezeLists(pl))

	wantDocs, wantPoss := cursorDump(t, vRaw, 0)
	gotDocs, gotPoss := cursorDump(t, vFroz, 0)
	if len(gotDocs) != len(wantDocs) {
		t.Fatalf("%s: %d docs decoded, want %d", label, len(gotDocs), len(wantDocs))
	}
	for i := range wantDocs {
		if gotDocs[i] != wantDocs[i] {
			t.Fatalf("%s: doc[%d] = %d, want %d", label, i, gotDocs[i], wantDocs[i])
		}
		if len(gotPoss[i]) != len(wantPoss[i]) {
			t.Fatalf("%s: doc %d decoded %d positions, want %d", label, wantDocs[i], len(gotPoss[i]), len(wantPoss[i]))
		}
		for j := range wantPoss[i] {
			if gotPoss[i][j] != wantPoss[i][j] {
				t.Fatalf("%s: doc %d pos[%d] = %d, want %d", label, wantDocs[i], j, gotPoss[i][j], wantPoss[i][j])
			}
		}
	}

	// Galloping seeks landing on, between, before, and past every doc.
	var c termCursor
	if !c.init(vFroz, 0) {
		if len(wantDocs) != 0 {
			t.Fatalf("%s: frozen cursor refused non-empty list", label)
		}
		return
	}
	prev := int32(-1)
	for i, d := range wantDocs {
		target := d
		if i%3 == 1 && d > prev+1 {
			target = prev + 1 // land from the gap before d
		}
		got, ok := c.seekGEQ(target)
		if !ok || got != d {
			t.Fatalf("%s: seekGEQ(%d) = (%d, %v), want (%d, true)", label, target, got, ok, d)
		}
		if got2, ok2 := c.seekGEQ(d); !ok2 || got2 != d {
			t.Fatalf("%s: repeated seekGEQ(%d) moved to (%d, %v)", label, d, got2, ok2)
		}
		prev = d
	}
	if _, ok := c.seekGEQ(wantDocs[len(wantDocs)-1] + 1); ok {
		t.Fatalf("%s: seek past the last doc should exhaust the cursor", label)
	}
}

func TestFrozenRoundTripAdversarial(t *testing.T) {
	build := func(docs []int32, posFn func(doc int32) []int32) postingList {
		var pl postingList
		for _, d := range docs {
			for _, p := range posFn(d) {
				pl.add(d, p)
			}
		}
		return pl
	}

	// Dense run: every doc 0..999, consecutive positions (gap-1 streams of
	// all zeros — the best case for Golomb, worst case for off-by-ones).
	dense := make([]int32, 1000)
	for i := range dense {
		dense[i] = int32(i)
	}
	checkRoundTrip(t, build(dense, func(d int32) []int32 {
		return []int32{0, 1, 2, int32(3 + d%5)}
	}), "dense-run")

	// Singleton list: one doc, one position.
	checkRoundTrip(t, build([]int32{17}, func(int32) []int32 { return []int32{42} }), "singleton")

	// Singleton at extremes: doc 0 position 0, and a huge doc id with a
	// max-position occurrence (gap coder must survive 2^21-scale gaps).
	checkRoundTrip(t, build([]int32{0}, func(int32) []int32 { return []int32{0} }), "zero-singleton")
	checkRoundTrip(t, build([]int32{1 << 21}, func(int32) []int32 { return []int32{1 << 20} }), "huge-singleton")

	// Sparse extremes: first and last doc far apart, positions at both ends
	// of a long document.
	checkRoundTrip(t, build([]int32{3, 5000, 1 << 20}, func(d int32) []int32 {
		return []int32{0, 1, 262143}
	}), "sparse-extremes")

	// Block-boundary shapes: lengths straddling the skip interval.
	for _, n := range []int{skipInterval - 1, skipInterval, skipInterval + 1, 3*skipInterval + 1} {
		docs := make([]int32, n)
		for i := range docs {
			docs[i] = int32(i * 7)
		}
		checkRoundTrip(t, build(docs, func(d int32) []int32 {
			return []int32{d % 3, d%3 + 9}
		}), "block-boundary")
	}

	// Randomized lists with mixed gap regimes (seeded: reproducible).
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 20; trial++ {
		var pl postingList
		doc := int32(0)
		n := 1 + rng.Intn(400)
		for i := 0; i < n; i++ {
			if rng.Intn(4) == 0 {
				doc += int32(1 + rng.Intn(100000)) // sparse jump
			} else {
				doc += int32(1 + rng.Intn(3)) // dense run
			}
			pos := int32(rng.Intn(4))
			for f := 0; f < 1+rng.Intn(6); f++ {
				pl.add(doc, pos)
				pos += int32(1 + rng.Intn(50))
			}
		}
		checkRoundTrip(t, pl, "randomized")
	}
}
