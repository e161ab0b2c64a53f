package framework

import (
	"bytes"
	"math"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"contextrank/internal/detect"
	"contextrank/internal/features"
	"contextrank/internal/match"
	"contextrank/internal/textproc"
)

// TestPoolSharedAcrossTIDTables: annPool is shared by every runtime in the
// process, so a scratch whose window set was sized by a runtime with a
// small TID table serves one with a larger table, and the other way round.
// Alternating the two, every result equals the one computed on a new
// scratch.
func TestPoolSharedAcrossTIDTables(t *testing.T) {
	small, large := resilienceRuntime(t), windowRuntime(t)
	if small.Packs.TIDs.Len() >= large.Packs.TIDs.Len() {
		t.Fatalf("TID tables of %d and %d terms: the first must be smaller", small.Packs.TIDs.Len(), large.Packs.TIDs.Len())
	}
	rts := []*Runtime{small, large}
	want := make([][][]Annotation, len(rts))
	scored := false
	for i, rt := range rts {
		for _, doc := range windowCases {
			// Two collections empty the pool, so the call takes a new scratch.
			runtime.GC()
			runtime.GC()
			anns := rt.Annotate(doc, 0)
			want[i] = append(want[i], anns)
			for _, a := range anns {
				scored = scored || a.Relevance > 0
			}
		}
	}
	if !scored {
		t.Fatal("no annotation has a relevance: the window set is never read")
	}
	for round := 0; round < 3; round++ {
		// From an empty pool, the small table's runtime sizes the scratch
		// the large one takes next.
		runtime.GC()
		runtime.GC()
		for d, doc := range windowCases {
			for i, rt := range rts {
				if got := rt.Annotate(doc, 0); !reflect.DeepEqual(got, want[i][d]) {
					t.Fatalf("round %d, runtime %d, doc %d: %+v, want %+v", round, i, d, got, want[i][d])
				}
			}
		}
	}
}

// TestTIDSetWrap: when the generation wraps, stamps from 2^32 windows ago
// must not read as members; reset clears them.
func TestTIDSetWrap(t *testing.T) {
	var s tidSet
	s.stamp(4, []uint32{2}) // 2 carries stamp 1, the generation after the wrap
	s.gen = math.MaxUint32 - 1
	if n := s.stamp(4, []uint32{1, 3, match.NoID, 1}); n != 2 || s.gen != math.MaxUint32 {
		t.Fatalf("stamped %d distinct TIDs at gen %d, want 2 at the last gen", n, s.gen)
	}
	s.stamp(4, nil)
	if s.gen != 1 || len(s.members()) != 0 {
		t.Fatalf("after the wrap: gen %d, members %v", s.gen, s.members())
	}
	s.stamp(4, []uint32{2})
	s.stamp(8, nil) // a larger TID table than the set was sized for
	if len(s.mark) != 8 || len(s.members()) != 0 {
		t.Fatalf("after growing: %d marks, members %v", len(s.mark), s.members())
	}
}

// TestTablesShareRows: after NewTables and after LoadBundle, the two
// tables share one concept vocabulary, and row r holds concept r's pack.
func TestTablesShareRows(t *testing.T) {
	b := sampleBundle(t)
	// The interest table lists the concepts in the reverse of the packs'
	// order, so NewTables has to move every pack.
	names := b.Packs.names
	var reversed []string
	for r := names.Len() - 1; r >= 0; r-- {
		reversed = append(reversed, names.Token(uint32(r)))
	}
	it := sampleInterest(reversed)
	tables := NewTables(detect.New(nil, nil), it, b.Packs)
	checkRows(t, "NewTables", tables.Interest, tables.Packs, b.Packs)

	var buf bytes.Buffer
	if err := (&Bundle{Interest: it, Packs: b.Packs, Model: b.Model}).Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadBundle(&buf)
	if err != nil {
		t.Fatal(err)
	}
	checkRows(t, "LoadBundle", loaded.Interest, loaded.Packs, b.Packs)
	if again := NewTables(detect.New(nil, nil), loaded.Interest, loaded.Packs); again.Packs != loaded.Packs {
		t.Fatal("NewTables copied packs that already share the interest table's rows")
	}
}

func checkRows(t *testing.T, what string, it *InterestTable, kp, orig *KeywordPacks) {
	t.Helper()
	if kp.names != it.names || kp.Len() != it.Len() || len(it.data) != it.Len()*NumFields {
		t.Fatalf("%s: the tables do not share one vocabulary of %d rows", what, it.Len())
	}
	for r := range it.Len() {
		name := it.names.Token(uint32(r))
		if it.names.ID(name) != uint32(r) || !slices.Equal(kp.packs[r], orig.pack(name)) {
			t.Fatalf("%s: row %d (%q) holds another concept's pack", what, r, name)
		}
	}
}

// TestRowOrderServesSameOutput: a bundle saved from tables that list the
// concepts in one order serves exactly what one saved in another order
// serves.
func TestRowOrderServesSameOutput(t *testing.T) {
	base := windowRuntime(t)
	names := []string{"alphaword", "betaword"}
	fieldsOf := func(n string) features.Fields {
		f, _ := base.Interest.Fields(n)
		return f
	}
	var outs [][][]Annotation
	for _, order := range [][]string{names, {names[1], names[0]}} {
		b := &Bundle{Interest: BuildInterestTable(order, fieldsOf), Packs: base.Packs, Model: base.Model}
		var buf bytes.Buffer
		if err := b.Save(&buf); err != nil {
			t.Fatal(err)
		}
		loaded, err := LoadBundle(&buf)
		if err != nil {
			t.Fatal(err)
		}
		rt := NewRuntime(base.Pipeline, loaded.Interest, loaded.Packs, loaded.Model)
		var out [][]Annotation
		for _, doc := range windowCases {
			out = append(out, rt.Annotate(doc, 0))
		}
		outs = append(outs, out)
	}
	if !reflect.DeepEqual(outs[0], outs[1]) {
		t.Fatal("the row order changed what is served")
	}
}

// TestBenchAdaptersMatchServedPath holds benchapi.go to the served path bit
// for bit: StemDoc's stems are the document's TIDs as lookupWords resolves
// them, and Score over DocTIDs of them is scoreNorm over those TIDs
// stamped as AnnotateCtx stamps a window, for every concept of the runtime.
func TestBenchAdaptersMatchServedPath(t *testing.T) {
	rt := windowRuntime(t)
	for _, doc := range windowCases {
		sc := &annScratch{tokens: textproc.TokenizeInto(doc, nil)}
		rt.lookupWords(sc, true)
		var served tidSet
		served.stamp(rt.Packs.TIDs.Len(), sc.tokTID)
		docTIDs := rt.Packs.DocTIDs(rt.StemDoc(doc))
		if members := served.members(); len(members)+len(docTIDs) > 0 && !reflect.DeepEqual(docTIDs, members) {
			t.Fatalf("%q: DocTIDs(StemDoc) = %v, the served path's TIDs %v", doc, docTIDs, members)
		}
		for r := range rt.Interest.Len() {
			name := rt.Interest.names.Token(uint32(r))
			want, _ := rt.Packs.scoreNorm(rt.Packs.packs[r], &served)
			if got := rt.Packs.Score(name, docTIDs); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%q, %q: Score %v, scoreNorm %v", doc, name, got, want)
			}
		}
	}
}
