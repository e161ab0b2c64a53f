package framework

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"runtime"
	"strings"
	"testing"

	"contextrank/internal/corpus"
	"contextrank/internal/detect"
	"contextrank/internal/features"
	"contextrank/internal/ranksvm"
	"contextrank/internal/relevance"
	"contextrank/internal/stem"
	"contextrank/internal/textproc"
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

// sealed appends data's checksum, so a hand-built body reaches the
// structural checks.
func sealed(data []byte) []byte {
	return binary.LittleEndian.AppendUint32(bytes.Clone(data), crc32.ChecksumIEEE(data))
}

// headerOnly is the smallest well-formed prefix of a bundle — magic,
// calibration, no concepts, pack scale, empty TID table — followed by a
// model width and no model floats, sealed: 104 bytes.
func headerOnly(width uint32) []byte {
	buf := append(bundleMagic[:], make([]byte, 8*NumFields)...)
	buf = binary.LittleEndian.AppendUint32(buf, 0) // concepts
	buf = binary.LittleEndian.AppendUint64(buf, 0) // pack scale
	buf = binary.LittleEndian.AppendUint32(buf, 0) // TIDs
	buf = binary.LittleEndian.AppendUint32(buf, width)
	return sealed(buf)
}

// oneConcept is a sealed bundle of one concept, "qq", with a TID table of
// nTerms terms, the given bytes where its pack goes, and a model of the
// runtime's width.
func oneConcept(tb testing.TB, nTerms int, pack []byte) []byte {
	le := binary.LittleEndian
	buf := append(bundleMagic[:], make([]byte, 8*NumFields)...)
	buf = appendString(le.AppendUint32(buf, 1), "qq")
	buf = append(buf, make([]byte, 2*NumFields)...)
	buf = le.AppendUint32(le.AppendUint64(buf, math.Float64bits(1)), uint32(nTerms))
	for i := range nTerms {
		buf = appendString(buf, fmt.Sprint("t", i))
	}
	buf = append(buf, pack...)
	return sealed(appendModel(buf, sampleModel(tb, modelDim)))
}

// withModel is the bytes of a sampleBundle whose model edit changed.
func withModel(tb testing.TB, edit func(m *ranksvm.Model)) []byte {
	b := sampleBundle(tb)
	edit(b.Model)
	return saveBytes(tb, b)
}

// encodedPack is appendPack's form of a pack of (TID, score) pairs.
func encodedPack(pairs ...uint32) []byte {
	var pack []uint32
	for i := 0; i < len(pairs); i += 2 {
		pack = append(pack, packEntry(pairs[i], pairs[i+1]))
	}
	out, _ := appendPack(nil, pack)
	return out
}

// claimsMillion is a pack that claims 2^20 entries over 3 bytes.
var claimsMillion = append(binary.AppendUvarint(nil, 1<<20), 1, 2, 3)

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
	for r := range b.Interest.Len() {
		name := b.Interest.names.Token(uint32(r))
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
	for r, pack := range b.Packs.packs {
		name := b.Packs.names.Token(uint32(r))
		g := got.Packs.pack(name)
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

// A length prefix is a claim, not a size: the header with no concepts and
// a model width of 2^28 (6 GiB of floats), and no floats behind it, must
// fail before it allocates for the claim; so must a pack that claims 2^20
// entries (4 MiB unpacked) over 3 bytes.
func TestLoadBundleAllocatesOnlyPresentBytes(t *testing.T) {
	header := headerOnly(1 << 28)
	if len(header) != 104 {
		t.Fatalf("header is %d bytes, want 104", len(header))
	}
	for label, data := range map[string][]byte{
		"model claim": header,
		"pack claim":  oneConcept(t, 3, claimsMillion),
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := LoadBundle(bytes.NewReader(data))
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: loaded: %v", label, err)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
			t.Fatalf("%s: rejecting %d bytes allocated %d bytes", label, len(data), alloc)
		}
	}
}

// A name that appears twice would overwrite its first row and leave Len out
// of step with the data: corrupt, even under a valid checksum.
func TestLoadBundleRejectsDuplicateNames(t *testing.T) {
	b := sampleBundle(t)
	b.Interest = sampleInterest([]string{"qqalpha", "qqbravo"})
	b.Packs = BuildKeywordPacks(relevance.NewStore(map[string]corpus.Vector{
		"qqalpha": {{Term: "troop", Weight: 2}},
		"qqbravo": {{Term: "market", Weight: 3}},
	}))
	edited := bytes.Replace(saveBytes(t, b), []byte("qqbravo"), []byte("qqalpha"), 1)
	dup := sealed(edited[:len(edited)-4])
	if _, err := LoadBundle(bytes.NewReader(dup)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("duplicate interest name loaded: %v", err)
	}
}

// A pack's TIDs are coded as gaps, so they ascend strictly by
// construction; what a corrupt pack can still claim is a TID at or past
// the end of the TID table, or more entries than its streams hold. Either
// is corrupt even under a valid checksum.
func TestLoadBundleRejectsBadPack(t *testing.T) {
	if _, err := LoadBundle(bytes.NewReader(oneConcept(t, 3, encodedPack(0, 7, 2, 9)))); err != nil {
		t.Fatalf("well-formed pack: %v", err)
	}
	for label, pack := range map[string][]byte{
		"TID at the table's end": encodedPack(0, 7, 3, 9),
		"TID past the table":     encodedPack(40, 1),
	} {
		if _, err := LoadBundle(bytes.NewReader(oneConcept(t, 3, pack))); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: pack loaded: %v", label, err)
		}
	}
	// One entry more than the streams hold, with nothing after the pack:
	// the TID or score stream runs out.
	short := encodedPack(0, 7, 2, 9, 5, 1)
	short[0] = 4
	d := &decoder{buf: short}
	if d.pack(1<<TIDBits - 1); !errors.Is(d.err, ErrCorrupt) {
		t.Fatalf("a pack longer than its streams decoded: %v", d.err)
	}
}

// Both tables are keyed by concept name, so Save refuses a bundle whose
// interest table and keyword packs name different concepts: a concept with
// no pack would be served with relevance 0.
func TestSaveRejectsMismatchedTables(t *testing.T) {
	for label, names := range map[string][]string{
		"extra interest row":   {"economy", "empty", "iraq war", "qqforeign"},
		"missing interest row": {"economy", "iraq war"},
		"different concept":    {"economy", "empty", "qqforeign"},
	} {
		b := sampleBundle(t)
		b.Interest = sampleInterest(names)
		if err := b.Save(io.Discard); err == nil {
			t.Fatalf("%s: mismatched tables saved", label)
		}
	}
}

// The file holds one pack per concept in row order, with no names, so the
// tables cannot disagree on which concepts exist, only on how many packs
// follow the TID table: one pack too many or too few is corrupt.
func TestLoadBundleRejectsMismatchedTables(t *testing.T) {
	one := encodedPack(0, 7)
	for label, packs := range map[string][]byte{
		"extra pack":   append(bytes.Clone(one), one...),
		"missing pack": nil,
	} {
		if _, err := LoadBundle(bytes.NewReader(oneConcept(t, 3, packs))); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: loaded: %v", label, err)
		}
	}
}

// A model fitted to any width but the runtime's layout does not fit it and
// must not load: narrower ones would index past their weights. NewRuntime,
// which a model reaches without a bundle too, panics naming both widths,
// and on a model that is not linear.
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
	b := sampleBundle(t)
	b.Model.Kernel = ranksvm.RBF
	defer func() {
		if r := recover(); r != "framework: the runtime serves linear models, not kernel 1" {
			t.Fatalf("NewRuntime with an RBF model: recovered %v", r)
		}
	}()
	NewRuntime(detect.New(nil, nil), b.Interest, b.Packs, b.Model)
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

// A file in a layout before this one fails at the header, checksum or
// not: version 1 has no Golomb pack block, version 2 a JSON model.
func TestLoadBundleRejectsOldVersion(t *testing.T) {
	for _, version := range []byte{1, 2} {
		old := headerOnly(uint32(modelDim))
		old[len(bundleMagic)-1] = version
		if _, err := LoadBundle(bytes.NewReader(sealed(old[:len(old)-4]))); !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "magic") {
			t.Fatalf("a version-%d header: %v", version, err)
		}
	}
}

// The model block holds floats the runtime scores with, so a weight or
// mean that is not finite, or a scale that is not finite and positive,
// is corrupt even under a valid checksum: it would score every ranked
// concept ±Inf or NaN.
func TestLoadBundleRejectsBadModel(t *testing.T) {
	if _, err := LoadBundle(bytes.NewReader(withModel(t, func(*ranksvm.Model) {}))); err != nil {
		t.Fatalf("unedited model: %v", err)
	}
	nan, inf := math.NaN(), math.Inf(1)
	for label, edit := range map[string]func(m *ranksvm.Model){
		"NaN weight":     func(m *ranksvm.Model) { m.Weights[3] = nan },
		"+Inf weight":    func(m *ranksvm.Model) { m.Weights[0] = inf },
		"-Inf weight":    func(m *ranksvm.Model) { m.Weights[modelDim-1] = -inf },
		"NaN mean":       func(m *ranksvm.Model) { m.Mean[5] = nan },
		"-Inf mean":      func(m *ranksvm.Model) { m.Mean[0] = -inf },
		"zero scale":     func(m *ranksvm.Model) { m.Scale[2] = 0 },
		"negative scale": func(m *ranksvm.Model) { m.Scale[modelDim-1] = -1 },
		"NaN scale":      func(m *ranksvm.Model) { m.Scale[1] = nan },
		"+Inf scale":     func(m *ranksvm.Model) { m.Scale[4] = inf },
	} {
		if _, err := LoadBundle(bytes.NewReader(withModel(t, edit))); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: loaded: %v", label, err)
		}
	}
}

// The bundle holds the linear model the runtime serves: Save refuses any
// other kernel rather than write a file that cannot load.
func TestSaveRejectsRBFModel(t *testing.T) {
	b := sampleBundle(t)
	b.Model.Kernel, b.Model.Weights = ranksvm.RBF, nil
	if err := b.Save(io.Discard); err == nil {
		t.Fatal("RBF model saved")
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
	dt := kpDocTIDs(t, b.Packs, doc)
	lt := kpDocTIDs(t, loaded.Packs, doc)
	for r := range b.Packs.Len() {
		name := b.Packs.names.Token(uint32(r))
		if b.Packs.Score(name, dt) != loaded.Packs.Score(name, lt) {
			t.Fatalf("pack score differs for %q", name)
		}
	}
}

// kpDocTIDs is doc's TID set in kp: its content words, stemmed, through
// DocTIDs. An empty set would make any two tables score alike.
func kpDocTIDs(t *testing.T, kp *KeywordPacks, doc string) map[uint32]bool {
	t.Helper()
	stems := map[string]bool{}
	for _, w := range textproc.ContentWords(doc) {
		stems[stem.Stem(w)] = true
	}
	tids := kp.DocTIDs(stems)
	if len(tids) == 0 {
		t.Fatalf("no word of %q has a TID", doc)
	}
	return tids
}
