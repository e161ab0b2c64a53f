package framework

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"contextrank/internal/corpus"
	"contextrank/internal/features"
	"contextrank/internal/relevance"
)

// Property: for any randomly generated keyword store, the packed
// representation round-trips every term exactly, quantized scores never
// exceed the original, and the bundle's Golomb form of each pack decodes
// to identical entries.
func TestKeywordPacksRoundtripProperty(t *testing.T) {
	f := func(seed int64, nConcepts, nTerms uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		nc := int(nConcepts)%8 + 1
		vecs := make(map[string]corpus.Vector, nc)
		for c := 0; c < nc; c++ {
			nt := int(nTerms)%30 + 1
			seen := map[string]bool{}
			v := make(corpus.Vector, 0, nt)
			for len(v) < nt {
				term := fmt.Sprintf("t%d", rng.Intn(200))
				if seen[term] {
					continue
				}
				seen[term] = true
				v = append(v, corpus.Entry{Term: term, Weight: rng.Float64() * 100})
			}
			corpus.SortVector(v)
			vecs[fmt.Sprintf("concept%d", c)] = v
		}
		kp := BuildKeywordPacks(relevance.NewStore(vecs))
		for name, orig := range vecs {
			got := kp.Keywords(name)
			if len(got) != len(orig) {
				return false
			}
			gm := got.Map()
			for _, e := range orig {
				q, ok := gm[e.Term]
				if !ok {
					return false
				}
				// Quantization error bounded by one score step.
				if q > e.Weight+1e-9 {
					return false
				}
			}
			// The bundle's Golomb form decodes to identical entries.
			enc, _ := appendPack(nil, kp.pack(name))
			d := &decoder{buf: enc}
			entries := d.pack(uint32(kp.TIDs.Len()))
			if d.err != nil || len(d.buf) != 0 {
				return false
			}
			raw := kp.pack(name)
			if len(entries) != len(raw) {
				return false
			}
			for i := range raw {
				if entries[i] != raw[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: quantized interestingness fields never exceed their originals
// by more than one quantization step, and lookups are total over the built
// inventory.
func TestInterestTableQuantizationProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		nc := int(n)%20 + 1
		names := make([]string, nc)
		fields := make(map[string][9]float64, nc)
		for i := range names {
			names[i] = fmt.Sprintf("c%d", i)
			var raw [9]float64
			for d := range raw {
				raw[d] = rng.Float64() * 1000
			}
			fields[names[i]] = raw
		}
		table := BuildInterestTable(names, func(name string) features.Fields {
			raw := fields[name]
			return features.Fields{
				FreqExact: raw[0], FreqPhraseContained: raw[1], UnitScore: raw[2],
				SearchEnginePhrase: raw[3], ConceptSize: raw[4], NumberOfChars: raw[5],
				Subconcepts: raw[6], WikiWordCount: raw[8],
			}
		})
		for _, name := range names {
			got, ok := table.Fields(name)
			if !ok {
				return false
			}
			raw := fields[name]
			maxima := table.calib.Max
			checks := []struct{ got, want, max float64 }{
				{got.FreqExact, raw[0], maxima[0]},
				{got.SearchEnginePhrase, raw[3], maxima[3]},
				{got.WikiWordCount, raw[8], maxima[8]},
			}
			for _, c := range checks {
				step := c.max / 65535
				if diff := c.got - c.want; diff > step+1e-9 || diff < -step-1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}
