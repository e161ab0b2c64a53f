package framework

import (
	"math"
	"slices"
	"strings"
	"testing"

	"contextrank/internal/corpus"
	"contextrank/internal/detect"
	"contextrank/internal/features"
	"contextrank/internal/match"
	"contextrank/internal/ranksvm"
	"contextrank/internal/relevance"
	"contextrank/internal/world"
)

func sampleFields(i int) features.Fields {
	return features.Fields{
		FreqExact:           float64(i) * 0.7,
		FreqPhraseContained: float64(i) * 0.9,
		UnitScore:           float64(i%10) / 10,
		SearchEnginePhrase:  float64(i) * 0.3,
		ConceptSize:         float64(1 + i%3),
		NumberOfChars:       float64(5 + i%20),
		Subconcepts:         float64(i % 4),
		HighLevelType:       world.EntityType(i % 7),
		WikiWordCount:       float64(i) * 1.7,
	}
}

func TestInterestTableRoundtrip(t *testing.T) {
	names := []string{"alpha", "beta", "gamma", "delta"}
	fieldsOf := func(n string) features.Fields {
		for i, name := range names {
			if name == n {
				return sampleFields(i*7 + 1)
			}
		}
		return features.Fields{}
	}
	table := BuildInterestTable(names, fieldsOf)
	if table.Len() != len(names) {
		t.Fatalf("Len = %d", table.Len())
	}
	for i, n := range names {
		want := sampleFields(i*7 + 1)
		got, ok := table.Fields(n)
		if !ok {
			t.Fatalf("missing %q", n)
		}
		// Quantization error is bounded by max/65535 per field.
		if got.HighLevelType != want.HighLevelType {
			t.Fatalf("type changed: %v vs %v", got.HighLevelType, want.HighLevelType)
		}
		if math.Abs(got.FreqExact-want.FreqExact) > 0.001*math.Max(1, want.FreqExact) {
			t.Fatalf("FreqExact %v vs %v", got.FreqExact, want.FreqExact)
		}
		if math.Abs(got.ConceptSize-want.ConceptSize) > 0.01 {
			t.Fatalf("ConceptSize %v vs %v", got.ConceptSize, want.ConceptSize)
		}
	}
	if _, ok := table.Fields("missing"); ok {
		t.Fatal("found missing concept")
	}
}

func TestInterestTableMemoryBudget(t *testing.T) {
	names := make([]string, 1000)
	for i := range names {
		names[i] = "concept" + string(rune('a'+i%26)) + string(rune('0'+i/26%10)) + string(rune('0'+i/260))
	}
	table := BuildInterestTable(names, func(string) features.Fields { return sampleFields(3) })
	// The paper's claim scaled down: 18 bytes per concept.
	if got := table.MemoryBytes(); got != len(names)*BytesPerConcept {
		t.Fatalf("memory = %d, want %d", got, len(names)*BytesPerConcept)
	}
}

// TestGlobalTIDs: the Global TID Table BuildKeywordPacks fills holds each
// keyword term once, under a dense id that maps back to the term.
func TestGlobalTIDs(t *testing.T) {
	tt := BuildKeywordPacks(buildStore()).TIDs
	if tt.Len() != 5 {
		t.Fatalf("Len = %d, want the 5 distinct keyword terms", tt.Len())
	}
	troop, baghdad := tt.ID("troop"), tt.ID("baghdad")
	if troop == match.NoID || baghdad == match.NoID || troop == baghdad {
		t.Fatalf("ids troop=%d baghdad=%d", troop, baghdad)
	}
	if tt.ID("missing") != match.NoID {
		t.Fatal("missing term found")
	}
	if tt.Token(troop) != "troop" || tt.Token(baghdad) != "baghdad" {
		t.Fatal("reverse lookup broken")
	}
}

func buildStore() *relevance.Store {
	return relevance.NewStore(relevance.Snippets, map[string]corpus.Vector{
		"iraq war": {{Term: "troop", Weight: 8}, {Term: "baghdad", Weight: 5}, {Term: "soldier", Weight: 2}},
		"economy":  {{Term: "market", Weight: 6}, {Term: "trade", Weight: 3}},
		"empty":    nil,
	})
}

func TestKeywordPacksRoundtrip(t *testing.T) {
	kp := BuildKeywordPacks(buildStore())
	if kp.Len() != 3 {
		t.Fatalf("Len = %d", kp.Len())
	}
	kws := kp.Keywords("iraq war")
	if len(kws) != 3 {
		t.Fatalf("keywords = %v", kws)
	}
	if kws[0].Term != "troop" {
		t.Fatalf("top keyword = %v", kws[0])
	}
	// Quantized weights within 1/1023 of original scale.
	if math.Abs(kws[0].Weight-8) > 8.0/MaxQScore*2 {
		t.Fatalf("weight %v too far from 8", kws[0].Weight)
	}
	if got := kp.BytesFor("iraq war"); got != 12 {
		t.Fatalf("BytesFor = %d, want 12 (3 × 4B)", got)
	}
	if got := kp.BytesFor("empty"); got != 0 {
		t.Fatalf("empty pack bytes = %d", got)
	}
}

func TestKeywordPacks400ByteBudget(t *testing.T) {
	// A full m=100 pack must cost exactly 400 bytes, the paper's figure.
	terms := make(corpus.Vector, 100)
	for i := range terms {
		terms[i] = corpus.Entry{Term: "term" + string(rune('a'+i%26)) + string(rune('a'+i/26)), Weight: float64(100 - i)}
	}
	store := relevance.NewStore(relevance.Snippets, map[string]corpus.Vector{"full": terms})
	kp := BuildKeywordPacks(store)
	if got := kp.BytesFor("full"); got != 400 {
		t.Fatalf("full pack = %d bytes, want 400", got)
	}
}

func TestKeywordPackScore(t *testing.T) {
	kp := BuildKeywordPacks(buildStore())
	stems := map[string]bool{"troop": true, "soldier": true, "banana": true}
	docTIDs := kp.DocTIDs(stems)
	got := kp.Score("iraq war", docTIDs)
	// Expect ≈ 8 + 2 (quantization rounds down slightly).
	if got < 9.5 || got > 10.01 {
		t.Fatalf("Score = %v, want ~10", got)
	}
	if kp.Score("economy", docTIDs) != 0 {
		t.Fatal("unrelated concept should score 0")
	}
	if kp.Score("missing", docTIDs) != 0 {
		t.Fatal("missing concept should score 0")
	}
	// The coverage-normalized form is the store's NormalizedScoreCtx over
	// the pack, 10 of 15, up to quantization; 0 for a pack without mass.
	for concept, want := range map[string]float64{"iraq war": 10.0 / 15, "economy": 0, "empty": 0, "missing": 0} {
		if _, norm := kp.scoreNorm(kp.pack(concept), stamped(kp, docTIDs)); math.Abs(norm-want) > 0.005 {
			t.Fatalf("normalized score of %q = %v, want ~%v", concept, norm, want)
		}
	}
}

// Each pack decodes from the bundle's Golomb form to its exact entries,
// consuming exactly the bytes appendPack wrote.
func TestPackEncodingRoundtrip(t *testing.T) {
	kp := BuildKeywordPacks(buildStore())
	for _, concept := range []string{"iraq war", "economy", "empty"} {
		enc, _ := appendPack(nil, kp.pack(concept))
		d := &decoder{buf: enc}
		entries := d.pack(uint32(kp.TIDs.Len()))
		if d.err != nil || len(d.buf) != 0 {
			t.Fatalf("%s: %v, %d bytes left", concept, d.err, len(d.buf))
		}
		if !slices.Equal(entries, kp.pack(concept)) {
			t.Fatalf("%s: roundtrip mismatch", concept)
		}
	}
}

func TestCompressionSavesSpace(t *testing.T) {
	terms := make(corpus.Vector, 100)
	for i := range terms {
		terms[i] = corpus.Entry{Term: "kw" + string(rune('a'+i%26)) + string(rune('a'+(i/26)%26)), Weight: float64(100 - i)}
	}
	store := relevance.NewStore(relevance.Snippets, map[string]corpus.Vector{"full": terms})
	kp := BuildKeywordPacks(store)
	if kp.GolombBytes() >= kp.BytesFor("full") {
		t.Fatalf("compression grew the pack: %d vs %d", kp.GolombBytes(), kp.BytesFor("full"))
	}
}

func TestRuntimeAnnotate(t *testing.T) {
	// Minimal self-contained runtime: no dictionaries/units, pattern +
	// interest-table driven.
	store := buildStore()
	kp := BuildKeywordPacks(store)
	names := []string{"iraq war", "economy"}
	table := BuildInterestTable(names, func(n string) features.Fields {
		if n == "iraq war" {
			return sampleFields(50)
		}
		return sampleFields(3)
	})
	// Train a tiny model preferring higher FreqExact.
	var instances []ranksvm.Instance
	for g := 0; g < 10; g++ {
		hot := sampleFields(50).Expand(features.AllGroups())
		cold := sampleFields(3).Expand(features.AllGroups())
		instances = append(instances,
			ranksvm.Instance{Features: features.AppendRelevance(hot, 1, 1), Label: 0.1, Group: g},
			ranksvm.Instance{Features: features.AppendRelevance(cold, 0, 0), Label: 0.01, Group: g},
		)
	}
	model, err := ranksvm.Train(instances, ranksvm.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	rt := NewRuntime(detect.New(nil, nil), table, kp, model)
	anns := rt.Annotate("The troops advanced. Email hq@army.mil now.", 5)
	// Pattern entity must be present and first.
	if len(anns) == 0 || anns[0].Detection.Kind != detect.KindPattern {
		t.Fatalf("pattern entity missing or not first: %+v", anns)
	}
	stemMBps, rankMBps := rt.Throughput()
	if stemMBps <= 0 || rankMBps <= 0 {
		t.Fatalf("throughput not measured: %v %v", stemMBps, rankMBps)
	}
}

func TestRuntimeTopN(t *testing.T) {
	kp := BuildKeywordPacks(buildStore())
	table := BuildInterestTable([]string{"a"}, func(string) features.Fields { return sampleFields(1) })
	model, err := ranksvm.Train([]ranksvm.Instance{
		{Features: features.AppendRelevance(make([]float64, features.Dim(features.AllGroups())), 0, 0), Label: 1, Group: 0},
		{Features: features.AppendRelevance(onesVector(features.Dim(features.AllGroups())), 1, 1), Label: 0, Group: 0},
	}, ranksvm.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	rt := NewRuntime(detect.New(nil, nil), table, kp, model)
	long := strings.Repeat("Visit http://a.example.com and http://b.example.com today. ", 2)
	anns := rt.Annotate(long, 1)
	// Patterns bypass topN; ensure no panic and deterministic output.
	if len(anns) == 0 {
		t.Fatal("no annotations")
	}
}

func onesVector(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = 1
	}
	return v
}
