package framework

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"runtime"
	"testing"

	"contextrank/internal/corpus"
	"contextrank/internal/detect"
	"contextrank/internal/features"
	"contextrank/internal/ranksvm"
	"contextrank/internal/relevance"
	"contextrank/internal/world"
)

// sampleBundle is a bundle whose interest table and keyword packs hold the
// same concepts, buildStore's.
func sampleBundle(t testing.TB) *Bundle {
	t.Helper()
	store := buildStore()
	return &Bundle{Interest: sampleInterest(store.Concepts()), Packs: BuildKeywordPacks(store), Model: sampleModel(t, modelDim)}
}

// sampleInterest is an interest table over names.
func sampleInterest(names []string) *InterestTable {
	return BuildInterestTable(names, func(n string) features.Fields {
		return features.Fields{
			FreqExact:     float64(len(n)),
			ConceptSize:   float64(1 + len(n)%3),
			NumberOfChars: float64(len(n)),
			HighLevelType: world.EntityType(len(n) % 7),
			WikiWordCount: float64(3 * len(n)),
		}
	})
}

// sampleModel trains a ranking model over dim features.
func sampleModel(t testing.TB, dim int) *ranksvm.Model {
	t.Helper()
	model, err := ranksvm.Train([]ranksvm.Instance{
		{Features: onesVector(dim), Label: 1, Group: 0},
		{Features: make([]float64, dim), Label: 0, Group: 0},
	}, ranksvm.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return model
}

// saveBytes serializes b.
func saveBytes(t testing.TB, b *Bundle) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := b.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// resealed returns data with its trailing checksum recomputed, so an edit
// reaches the structural checks instead of stopping at the CRC.
func resealed(data []byte) []byte {
	out := bytes.Clone(data)
	binary.LittleEndian.PutUint32(out[len(out)-4:], crc32.ChecksumIEEE(out[:len(out)-4]))
	return out
}

// headerOnly is the smallest well-formed prefix of a bundle — magic,
// calibration, empty interest table, empty packs — followed by a model
// length and no model bytes: 108 bytes.
func headerOnly(modelLen uint32) []byte {
	var buf bytes.Buffer
	buf.Write(bundleMagic[:])
	for range NumFields {
		writeF64(&buf, 0)
	}
	writeU32(&buf, 0) // interest names
	writeU32(&buf, 0) // interest data
	writeF64(&buf, 0) // pack scale
	writeU32(&buf, 0) // TIDs
	writeU32(&buf, 0) // packs
	writeU32(&buf, modelLen)
	return buf.Bytes()
}

func TestBundleRoundtrip(t *testing.T) {
	b := sampleBundle(t)
	var buf bytes.Buffer
	if err := b.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := LoadBundle(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	// Interest table equality.
	if got.Interest.Len() != b.Interest.Len() {
		t.Fatalf("interest len %d != %d", got.Interest.Len(), b.Interest.Len())
	}
	for name := range b.Interest.index {
		want, _ := b.Interest.Fields(name)
		f, ok := got.Interest.Fields(name)
		if !ok || f != want {
			t.Fatalf("interest fields mismatch for %q: %+v vs %+v", name, f, want)
		}
	}
	// Keyword packs equality.
	if got.Packs.Len() != b.Packs.Len() || got.Packs.TIDs.Len() != b.Packs.TIDs.Len() {
		t.Fatal("pack shape mismatch")
	}
	for name, pack := range b.Packs.packs {
		g := got.Packs.packs[name]
		if len(g) != len(pack) {
			t.Fatalf("pack %q length mismatch", name)
		}
		for i := range pack {
			if g[i] != pack[i] {
				t.Fatalf("pack %q entry %d mismatch", name, i)
			}
		}
	}
	// Model equality via scoring.
	mixed := make([]float64, modelDim)
	for i := range mixed {
		mixed[i] = 0.3 + 0.1*float64(i%5)
	}
	for _, x := range [][]float64{onesVector(modelDim), make([]float64, modelDim), mixed} {
		if got.Model.Score(x) != b.Model.Score(x) {
			t.Fatal("model scores differ after roundtrip")
		}
	}
}

// A length prefix is a claim, not a size: the header with an empty table,
// no packs and a 256 MiB model length, and no model bytes behind it, must
// fail before it allocates for the claim.
func TestLoadBundleAllocatesOnlyPresentBytes(t *testing.T) {
	data := headerOnly(1 << 28)
	if len(data) != 108 {
		t.Fatalf("header is %d bytes, want 108", len(data))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := LoadBundle(bytes.NewReader(data))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("header without a model loaded: %v", err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
		t.Fatalf("rejecting 108 bytes allocated %d bytes", alloc)
	}
}

// A name that appears twice would overwrite its first row and leave Len out
// of step with the data: corrupt, even under a valid checksum.
func TestLoadBundleRejectsDuplicateNames(t *testing.T) {
	b := sampleBundle(t)
	b.Interest = BuildInterestTable([]string{"qqalpha", "qqbravo"}, func(n string) features.Fields {
		return features.Fields{FreqExact: float64(len(n))}
	})
	dup := resealed(bytes.Replace(saveBytes(t, b), []byte("qqbravo"), []byte("qqalpha"), 1))
	if _, err := LoadBundle(bytes.NewReader(dup)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("duplicate interest name loaded: %v", err)
	}

	b.Packs = BuildKeywordPacks(relevance.NewStore(relevance.Snippets, map[string]corpus.Vector{
		"qqcharl": {{Term: "troop", Weight: 2}},
		"qqdelta": {{Term: "market", Weight: 3}},
	}))
	dup = resealed(bytes.Replace(saveBytes(t, b), []byte("qqdelta"), []byte("qqcharl"), 1))
	if _, err := LoadBundle(bytes.NewReader(dup)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("duplicate pack name loaded: %v", err)
	}
}

// BuildKeywordPacks writes each pack's TIDs strictly ascending, and
// scoreNorm adds every entry it finds: a pack whose TIDs repeat or go
// backwards is corrupt even under a valid checksum, since a repeated
// keyword would be scored twice.
func TestLoadBundleRejectsUnsortedPack(t *testing.T) {
	for label, edit := range map[string]func(entries []byte){
		"repeated TID": repeatFirstEntry,
		"backward TID": func(e []byte) {
			first := bytes.Clone(e[:4])
			copy(e[:4], e[4:8])
			copy(e[4:8], first)
		},
	} {
		if _, err := LoadBundle(bytes.NewReader(editedPack(t, edit))); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: pack loaded: %v", label, err)
		}
	}
}

// editedPack is sampleBundle's bytes with edit applied to the entries of
// its "iraq war" pack (three of them), resealed.
func editedPack(tb testing.TB, edit func(entries []byte)) []byte {
	data := saveBytes(tb, sampleBundle(tb))
	at := bytes.LastIndex(data, []byte("iraq war")) + len("iraq war") // packs follow the interest table
	n := int(binary.LittleEndian.Uint32(data[at:]))
	edit(data[at+4 : at+4+4*n])
	return resealed(data)
}

// repeatFirstEntry writes a pack's first entry over its second.
func repeatFirstEntry(entries []byte) { copy(entries[4:8], entries[:4]) }

// Both tables are keyed by concept name, so a bundle whose interest table
// and keyword packs name different concepts must not load: a concept with
// no pack would be served with relevance 0.
func TestLoadBundleRejectsMismatchedTables(t *testing.T) {
	for label, names := range map[string][]string{
		"extra interest row":   {"economy", "empty", "iraq war", "qqforeign"},
		"missing interest row": {"economy", "iraq war"},
		"different concept":    {"economy", "empty", "qqforeign"},
	} {
		b := sampleBundle(t)
		b.Interest = sampleInterest(names)
		if _, err := LoadBundle(bytes.NewReader(saveBytes(t, b))); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: mismatched tables loaded: %v", label, err)
		}
	}
}

// A model fitted to any width but the runtime's layout does not fit it and
// must not load: narrower ones would index past their weights. NewRuntime,
// which a model reaches without a bundle too, panics naming both widths.
func TestLoadBundleRejectsModelWidth(t *testing.T) {
	for _, dim := range []int{2, modelDim - 1, modelDim + 1} {
		b := sampleBundle(t)
		b.Model = sampleModel(t, dim)
		if _, err := LoadBundle(bytes.NewReader(saveBytes(t, b))); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%d-feature model loaded into a %d-feature runtime: %v", dim, modelDim, err)
		}
		func() {
			want := fmt.Sprintf("framework: model has %d features, the runtime's layout %d", dim, modelDim)
			defer func() {
				if r := recover(); r != want {
					t.Fatalf("NewRuntime with a %d-feature model: recovered %v, want panic %q", dim, r, want)
				}
			}()
			NewRuntime(detect.New(nil, nil), b.Interest, b.Packs, b.Model)
		}()
	}
}

func TestBundleDetectsCorruption(t *testing.T) {
	b := sampleBundle(t)
	var buf bytes.Buffer
	if err := b.Save(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	// Flip a byte in the middle: checksum must catch it.
	corrupt := make([]byte, len(data))
	copy(corrupt, data)
	corrupt[len(corrupt)/2] ^= 0xFF
	if _, err := LoadBundle(bytes.NewReader(corrupt)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("flipped byte not detected: %v", err)
	}

	// Truncate: must fail, not hang or panic.
	if _, err := LoadBundle(bytes.NewReader(data[:len(data)/3])); err == nil {
		t.Fatal("truncated bundle loaded")
	}

	// Wrong magic.
	bad := make([]byte, len(data))
	copy(bad, data)
	bad[0] = 'X'
	if _, err := LoadBundle(bytes.NewReader(bad)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bad magic not detected: %v", err)
	}

	// Empty input.
	if _, err := LoadBundle(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty bundle loaded")
	}
}

func TestBundleDeterministicBytes(t *testing.T) {
	b := sampleBundle(t)
	var b1, b2 bytes.Buffer
	if err := b.Save(&b1); err != nil {
		t.Fatal(err)
	}
	if err := b.Save(&b2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatal("Save is not byte-deterministic")
	}
}

func TestBundleRuntimeEquivalence(t *testing.T) {
	// A runtime built from a loaded bundle must annotate identically.
	b := sampleBundle(t)
	var buf bytes.Buffer
	if err := b.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadBundle(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	doc := "the alpha beta phenomenon with troop reports from baghdad today"
	// Both runtimes share a nil pipeline-resources detector (pattern only),
	// so scoring paths are exercised through Packs/Interest directly.
	dt := kpDocTIDs(b.Packs, doc)
	lt := kpDocTIDs(loaded.Packs, doc)
	for name := range b.Packs.packs {
		if b.Packs.Score(name, dt) != loaded.Packs.Score(name, lt) {
			t.Fatalf("pack score differs for %q", name)
		}
	}
}

func kpDocTIDs(kp *KeywordPacks, doc string) map[uint32]bool {
	stems := map[string]bool{}
	for _, w := range []string{"troop", "baghdad", "soldier", "market"} {
		_ = w
		stems[w] = true
	}
	_ = doc
	return kp.DocTIDs(stems)
}
