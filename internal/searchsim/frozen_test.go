package searchsim

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"unsafe"
)

// checkArenaExact fails unless every arena of fx is allocated at its exact
// size and the term spans tile it in term order with no gap.
func checkArenaExact(t *testing.T, label string, fx *frozenIndex) {
	t.Helper()
	if len(fx.terms) != cap(fx.terms) || len(fx.stream) != cap(fx.stream) ||
		len(fx.skips) != cap(fx.skips) || len(fx.words) != cap(fx.words) {
		t.Fatalf("%s: slack in the arenas: terms %d/%d, stream %d/%d, skips %d/%d, words %d/%d", label,
			len(fx.terms), cap(fx.terms), len(fx.stream), cap(fx.stream),
			len(fx.skips), cap(fx.skips), len(fx.words), cap(fx.words))
	}
	var stream, skip, words uint32
	for id := range fx.terms {
		h := &fx.terms[id]
		if h.stream != stream || h.skip != skip || h.words != words {
			t.Fatalf("%s: term %d spans start at (%d, %d, %d), want (%d, %d, %d)",
				label, id, h.stream, h.skip, h.words, stream, skip, words)
		}
		nblk := (uint32(h.nDocs) + skipInterval - 1) / skipInterval
		stream += h.docLen + h.freqLen + h.posLen
		skip += 3 * nblk
		if h.nWords == 0 {
			skip += nblk // the doc stream's bit offsets
		}
		words += h.nWords
	}
	if int(stream) != len(fx.stream) || int(skip) != len(fx.skips) || int(words) != len(fx.words) {
		t.Fatalf("%s: spans end at (%d, %d, %d), arenas hold (%d, %d, %d)",
			label, stream, skip, words, len(fx.stream), len(fx.skips), len(fx.words))
	}
}

// wideVocabDocs is a doc set over a vocabulary of nTerms distinct words, so
// a merge covers many encode chunks.
func wideVocabDocs(seed int64, nDocs, nTerms int) []textDoc {
	rng := rand.New(rand.NewSource(seed))
	docs := make([]textDoc, nDocs)
	for i := range docs {
		toks := make([]string, 30+rng.Intn(30))
		for j := range toks {
			toks[j] = fmt.Sprintf("t%05d", rng.Intn(nTerms))
		}
		docs[i] = textDoc{tokens: toks, topic: 0}
	}
	return docs
}

// The frozen layout: a term header of at most 48 bytes, and arenas sized
// exactly and tiled by the term spans — on the bulk-built base segment, on
// a partial merge of sparse raw segments (whose absent terms hold empty
// spans) and on a full merge. A major merge allocates per encode chunk,
// never per term.
func TestFrozenArenaExact(t *testing.T) {
	if n := unsafe.Sizeof(termHeader{}); n > 48 {
		t.Fatalf("termHeader is %d bytes, want ≤ 48", n)
	}
	docs := randomRawDocs(17, 400)
	e := buildLiveSegmented(docs, 150, 50)
	checkArenaExact(t, "base", e.segs[0].frozen)
	partial := mergeSegments(e.segs[1:], 2)
	checkArenaExact(t, "partial merge", partial.frozen)
	e.CompactAll()
	checkArenaExact(t, "full merge", e.segs[0].frozen)

	// Allocations of a major merge over raw segments, against the number of
	// terms and of encode chunks it covers.
	for _, nTerms := range []int{2000, 8000} {
		w := buildLiveSegmented(wideVocabDocs(5, 600, nTerms), 0, 150)
		segs := w.segs
		terms := 0
		for _, s := range segs {
			terms = max(terms, s.numTerms())
		}
		chunks := (terms + freezeChunkTerms - 1) / freezeChunkTerms
		allocs := testing.AllocsPerRun(3, func() { mergeSegments(segs, 1) })
		t.Logf("%d terms, %d chunks: %.0f allocs per merge", terms, chunks, allocs)
		// Each chunk grows one scratch list and its own three arenas; the
		// merge adds a fixed few (header table, final arenas, segment).
		if limit := 48*chunks + 32; allocs > float64(limit) {
			t.Fatalf("merge of %d terms in %d chunks made %.0f allocations, want ≤ %d (48 per chunk)",
				terms, chunks, allocs, limit)
		}
	}
}

// fuzzLists decodes fuzz input into posting lists: a term count, then per
// term a doc count and per doc a doc gap (the top values jump a thousand
// docs or more), a frequency and that many position gaps. Exhausted input reads as
// zeros: dense docs with one occurrence each.
func fuzzLists(data []byte) []postingList {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := int(data[0])
		data = data[1:]
		return b
	}
	lists := make([]postingList, 1+next()%4)
	for i := range lists {
		pl := &lists[i]
		doc := int32(-1)
		for n := next(); n > 0; n-- {
			if g := next(); g >= 0xF0 {
				doc += int32(g-0xEF) * 1021
			} else {
				doc += 1 + int32(g%16)
			}
			pos := int32(-1)
			for f := 1 + next()%6; f > 0; f-- {
				pos += 1 + int32(next()%40)
				pl.add(doc, pos)
			}
		}
	}
	return lists
}

// checkDecodes fails unless term t of the one-segment view v decodes to
// want through both read paths: the block decoders a merge uses
// (appendList), and a termCursor walked doc by doc and then by galloping
// seeks that land on, and in the gap before, every doc.
func checkDecodes(t *testing.T, label string, v *view, id uint32, want *postingList) {
	t.Helper()
	var got postingList
	v.segs[0].appendList(id, 0, &got)
	if !slices.Equal(got.docs, want.docs) || !slices.Equal(got.starts, want.starts) || !slices.Equal(got.positions, want.positions) {
		t.Fatalf("%s: block decode of term %d = %v, want %v", label, id, got, *want)
	}
	docs, poss := cursorDump(t, v, id)
	if !slices.Equal(docs, want.docs) {
		t.Fatalf("%s: cursor walk of term %d = docs %v, want %v", label, id, docs, want.docs)
	}
	for i := range docs {
		if w := want.positions[want.starts[i]:want.end(i)]; !slices.Equal(poss[i], w) {
			t.Fatalf("%s: cursor walk of term %d, doc %d: positions %v, want %v", label, id, docs[i], poss[i], w)
		}
	}
	var c termCursor
	if !c.init(v, id) {
		return
	}
	for i, d := range want.docs {
		target := d
		if i%2 == 1 {
			target = want.docs[i-1] + 1
		}
		if got, ok := c.seekGEQ(target); !ok || got != d {
			t.Fatalf("%s: term %d seekGEQ(%d) = (%d, %v), want (%d, true)", label, id, target, got, ok, d)
		}
		if w := want.positions[want.starts[i]:want.end(i)]; !slices.Equal(c.positions(), w) {
			t.Fatalf("%s: term %d after seek to doc %d: positions %v, want %v", label, id, d, c.positions(), w)
		}
	}
	if _, ok := c.seekGEQ(want.docs[len(want.docs)-1] + 1); ok {
		t.Fatalf("%s: term %d: seek past the last doc did not exhaust the cursor", label, id)
	}
}

// FuzzFrozenList freezes fuzz-built posting lists through the production
// encoder into one segment's arenas — with the representation it picks, and
// with every doc stream forced to Golomb gaps and to a bitmap — and demands
// both decoders return every list exactly.
func FuzzFrozenList(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 7, 0, 100})
	f.Add([]byte{3, 40, 0, 0, 1, 2, 0, 5, 255, 3, 9, 9, 9})
	f.Add([]byte(strings.Repeat("\x00\xff\x01", 40)))
	f.Add(append([]byte{1, 200}, make([]byte, 400)...)) // dense: a bitmap term
	f.Add([]byte{2, 0, 33, 0xF5, 1, 39, 1, 2, 0xFF, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		lists := fuzzLists(data)
		auto := freezeLists(lists...)
		checkArenaExact(t, "auto", auto)
		indexes := map[string]*frozenIndex{"auto": auto}
		for _, bitmap := range []bool{false, true} {
			fx := &frozenIndex{}
			for i := range lists {
				fx.appendTerm(&lists[i], bitmap)
			}
			indexes[fmt.Sprintf("bitmap=%v", bitmap)] = fx
		}
		for label, fx := range indexes {
			v := listView(nil, fx)
			for id := range lists {
				if len(lists[id].docs) > 0 {
					checkDecodes(t, label, v, uint32(id), &lists[id])
				} else if df := v.df(uint32(id)); df != 0 {
					t.Fatalf("%s: empty term %d has df %d", label, id, df)
				}
			}
		}
	})
}
