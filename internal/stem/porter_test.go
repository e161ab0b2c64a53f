package stem

import (
	"testing"
	"testing/quick"
)

// Classic vectors from Porter's paper and the reference implementation's
// test vocabulary.
func TestStemVectors(t *testing.T) {
	cases := map[string]string{
		// Step 1a
		"caresses": "caress",
		"ponies":   "poni",
		"ties":     "ti",
		"caress":   "caress",
		"cats":     "cat",
		// Step 1b
		"feed":      "feed",
		"agreed":    "agre",
		"plastered": "plaster",
		"bled":      "bled",
		"motoring":  "motor",
		"sing":      "sing",
		"conflated": "conflat",
		"troubled":  "troubl",
		"sized":     "size",
		"hopping":   "hop",
		"tanned":    "tan",
		"falling":   "fall",
		"hissing":   "hiss",
		"fizzed":    "fizz",
		"failing":   "fail",
		"filing":    "file",
		// Step 1c
		"happy": "happi",
		"sky":   "sky",
		// Step 2
		"relational":     "relat",
		"conditional":    "condit",
		"rational":       "ration",
		"valenci":        "valenc",
		"hesitanci":      "hesit",
		"digitizer":      "digit",
		"conformabli":    "conform",
		"radicalli":      "radic",
		"differentli":    "differ",
		"vileli":         "vile",
		"analogousli":    "analog",
		"vietnamization": "vietnam",
		"predication":    "predic",
		"operator":       "oper",
		"feudalism":      "feudal",
		"decisiveness":   "decis",
		"hopefulness":    "hope",
		"callousness":    "callous",
		"formaliti":      "formal",
		"sensitiviti":    "sensit",
		"sensibiliti":    "sensibl",
		// Step 3
		"triplicate":  "triplic",
		"formative":   "form",
		"formalize":   "formal",
		"electriciti": "electr",
		"electrical":  "electr",
		"hopeful":     "hope",
		"goodness":    "good",
		// Step 4
		"revival":     "reviv",
		"allowance":   "allow",
		"inference":   "infer",
		"airliner":    "airlin",
		"gyroscopic":  "gyroscop",
		"adjustable":  "adjust",
		"defensible":  "defens",
		"irritant":    "irrit",
		"replacement": "replac",
		"adjustment":  "adjust",
		"dependent":   "depend",
		"adoption":    "adopt",
		"homologou":   "homolog",
		"communism":   "commun",
		"activate":    "activ",
		"angulariti":  "angular",
		"homologous":  "homolog",
		"effective":   "effect",
		"bowdlerize":  "bowdler",
		// Step 5
		"probate":  "probat",
		"rate":     "rate",
		"cease":    "ceas",
		"controll": "control",
		"roll":     "roll",
		// General
		"running":        "run",
		"presidents":     "presid",
		"insurance":      "insur",
		"international":  "intern",
		"advertisements": "advertis",
	}
	for in, want := range cases {
		if got := Stem(in); got != want {
			t.Errorf("Stem(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestStemShortWords(t *testing.T) {
	for _, w := range []string{"", "a", "is", "be"} {
		if got := Stem(w); got != w {
			t.Errorf("Stem(%q) = %q, want unchanged", w, got)
		}
	}
}

func TestStemNonAlpha(t *testing.T) {
	for _, w := range []string{"3.5", "u.s", "o'brien", "razr-v3m", "HELLO"} {
		if got := Stem(w); got != w {
			t.Errorf("Stem(%q) = %q, want unchanged (non-lowercase-alpha input)", w, got)
		}
	}
}

func TestMeasure(t *testing.T) {
	cases := map[string]int{
		"tr": 0, "ee": 0, "tree": 0, "y": 0, "by": 0,
		"trouble": 1, "oats": 1, "trees": 1, "ivy": 1,
		"troubles": 2, "private": 2, "oaten": 2, "orrery": 2,
	}
	for in, want := range cases {
		if got := measure([]byte(in)); got != want {
			t.Errorf("measure(%q) = %d, want %d", in, got, want)
		}
	}
}

// Property: stemming is idempotent for the overwhelming majority of English
// words; for safety we assert the weaker property that a second application
// never panics and always returns a non-empty stem for non-empty alpha input.
func TestStemProperties(t *testing.T) {
	f := func(s string) bool {
		out := Stem(s)
		_ = Stem(out)
		return len(s) == 0 || out != "" || s == ""
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: the stem is never longer than the input.
func TestStemNeverGrows(t *testing.T) {
	words := []string{"hopping", "agreed", "conflated", "troubled", "running",
		"filing", "controlling", "electricity", "happily", "nationalization"}
	for _, w := range words {
		if got := Stem(w); len(got) > len(w) {
			t.Errorf("Stem(%q) = %q grew", w, got)
		}
	}
}

// FuzzAppendStem: AppendStem after any prefix appends exactly Stem(w),
// never writes into the prefix, and allocates nothing when dst already has
// room for the word — the contract the runtime's stemming of words outside
// its word table rests on.
func FuzzAppendStem(f *testing.F) {
	for _, w := range []string{"", "a", "hopping", "nationalization", "relational", "sensibiliti", "3.5", "naïve", "HELLO", "agreed", "happy"} {
		f.Add("prefix ", w)
	}
	f.Fuzz(func(t *testing.T, prefix, w string) {
		want := Stem(w)
		if len(want) > len(w) {
			t.Fatalf("Stem(%q) = %q is longer than its word", w, want)
		}
		dst := make([]byte, len(prefix), len(prefix)+len(w))
		copy(dst, prefix)
		got := AppendStem(dst, w)
		if string(got[len(prefix):]) != want {
			t.Fatalf("AppendStem(%q, %q) appended %q, want %q", prefix, w, got[len(prefix):], want)
		}
		if string(got[:len(prefix)]) != prefix {
			t.Fatalf("AppendStem(%q, %q) wrote into the prefix: %q", prefix, w, got[:len(prefix)])
		}
		if allocs := testing.AllocsPerRun(1, func() { AppendStem(dst[:len(prefix)], w) }); allocs != 0 {
			t.Fatalf("AppendStem(%q, %q) with room for the word: %v allocs, want 0", prefix, w, allocs)
		}
	})
}

func BenchmarkStem(b *testing.B) {
	words := []string{"international", "presidents", "advertisements", "running", "troubled", "electricity"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Stem(words[i%len(words)])
	}
}
