package searchsim

import (
	"math/rand"
	"reflect"
	"testing"
)

// randomPostingList builds a posting list over maxDoc documents where each
// doc is included with probability density, carrying 1..4 positions.
func randomPostingList(rng *rand.Rand, maxDoc int, density float64) *postingList {
	pl := &postingList{}
	for d := 0; d < maxDoc; d++ {
		if rng.Float64() >= density {
			continue
		}
		pos := int32(rng.Intn(5))
		for k := 0; k < 1+rng.Intn(4); k++ {
			pl.add(int32(d), pos)
			pos += 1 + int32(rng.Intn(40))
		}
	}
	return pl
}

// freezeAs freezes pl as term 0 of a one-term frozen index with a forced
// doc-id representation: the Golomb gap stream, or the bitmap the encoder
// picks for dense terms.
func freezeAs(pl *postingList, bitmap bool) *frozenIndex {
	fx := &frozenIndex{}
	fx.appendTerm(pl, bitmap)
	return fx
}

// frozenCursor binds a cursor directly to term 0 of a frozen index (the
// engine-level init path is exercised by the differential suite; here we
// compare the two doc-stream representations in isolation).
func frozenCursor(fx *frozenIndex) *termCursor {
	c := &termCursor{}
	c.init(listView(nil, fx), 0)
	return c
}

// walkAll decodes the complete list: every doc with its freq and positions.
func walkAll(t *testing.T, fx *frozenIndex) (docs []int32, freqs []int32, positions [][]int32) {
	t.Helper()
	c := frozenCursor(fx)
	for doc, ok := c.seekGEQ(0); ok; doc, ok = c.seekGEQ(doc + 1) {
		docs = append(docs, doc)
		freqs = append(freqs, c.freq())
		positions = append(positions, append([]int32(nil), c.positions()...))
	}
	return
}

// Property test for the bitmap doc representation: for random lists at
// sparse through dense densities, a bitmap-forced freeze and a Golomb-forced
// freeze must decode identically — full walks and random galloping seeks.
func TestBitmapGolombEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 60; trial++ {
		maxDoc := 40 + rng.Intn(900)
		density := []float64{0.02, 0.1, 0.35, 0.7, 0.97}[trial%5]
		pl := randomPostingList(rng, maxDoc, density)
		if len(pl.docs) == 0 {
			continue
		}
		fg := freezeAs(pl, false)
		fb := freezeAs(pl, true)
		if fg.terms[0].nWords != 0 || fb.terms[0].nWords == 0 {
			t.Fatal("forced representations not honored")
		}

		gd, gf, gp := walkAll(t, fg)
		bd, bf, bp := walkAll(t, fb)
		if !reflect.DeepEqual(gd, pl.docs) {
			t.Fatalf("trial %d: golomb walk lost docs", trial)
		}
		if !reflect.DeepEqual(bd, gd) || !reflect.DeepEqual(bf, gf) || !reflect.DeepEqual(bp, gp) {
			t.Fatalf("trial %d: bitmap walk diverged from golomb", trial)
		}

		// Random forward-only seek patterns, including overshoots.
		cg, cb := frozenCursor(fg), frozenCursor(fb)
		target := int32(0)
		for {
			dg, okg := cg.seekGEQ(target)
			db, okb := cb.seekGEQ(target)
			if okg != okb || (okg && dg != db) {
				t.Fatalf("trial %d: seekGEQ(%d) diverged: (%d,%v) vs (%d,%v)", trial, target, dg, okg, db, okb)
			}
			if !okg {
				break
			}
			if cg.freq() != cb.freq() || !reflect.DeepEqual(cg.positions(), cb.positions()) {
				t.Fatalf("trial %d: freq/positions diverged at doc %d", trial, dg)
			}
			target = dg + 1 + int32(rng.Intn(64))
		}
	}
}

// The auto mode must pick the bitmap only when it shrinks the list, so
// FrozenBytes can never regress versus all-Golomb.
func TestBitmapAutoNeverGrows(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	sawBitmap := false
	for trial := 0; trial < 40; trial++ {
		pl := randomPostingList(rng, 80+rng.Intn(600), []float64{0.03, 0.4, 0.95}[trial%3])
		if len(pl.docs) == 0 {
			continue
		}
		auto := freezeLists(*pl)
		gol := freezeAs(pl, false)
		if auto.frozenBytes() > gol.frozenBytes() {
			t.Fatalf("trial %d: auto representation larger than golomb: %d > %d",
				trial, auto.frozenBytes(), gol.frozenBytes())
		}
		if auto.terms[0].nWords != 0 {
			sawBitmap = true
			if auto.frozenBytes() >= gol.frozenBytes() {
				t.Fatalf("trial %d: bitmap chosen without strict shrink", trial)
			}
		}
	}
	if !sawBitmap {
		t.Fatal("no dense list selected the bitmap representation; selection rule broken")
	}
}
