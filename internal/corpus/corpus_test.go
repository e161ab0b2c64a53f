package corpus

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

// idf stands in for the search index's IDF (searchsim.Engine.IDF, where
// the smoothed formula and its tests live): terms in many documents weigh
// less than the rest.
func idf(t string) float64 {
	switch t {
	case "iraq", "war", "policy":
		return 1.5
	}
	return 1.9
}

func TestTFIDFOrdering(t *testing.T) {
	// "cuba" is rarer than "war", and appears twice here.
	v := TFIDF(idf, []string{"cuba", "cuba", "war", "the", "of"})
	if len(v) != 2 {
		t.Fatalf("stopwords should be removed: %v", v)
	}
	if v[0].Term != "cuba" {
		t.Fatalf("expected cuba first, got %v", v)
	}
	if _, ok := v.Map()["the"]; ok {
		t.Fatal("stopword leaked into vector")
	}
}

func TestNormalizeMax(t *testing.T) {
	v := Vector{{"a", 4}, {"b", 2}, {"c", 1}}
	n := NormalizeMax(v)
	if n[0].Weight != 1.0 || n[1].Weight != 0.5 || n[2].Weight != 0.25 {
		t.Fatalf("NormalizeMax = %v", n)
	}
	// Original untouched.
	if v[0].Weight != 4 {
		t.Fatal("NormalizeMax must not mutate input")
	}
	if got := NormalizeMax(nil); got != nil {
		t.Fatal("nil should pass through")
	}
}

func TestPunishBelow(t *testing.T) {
	v := Vector{{"big", 0.9}, {"mid", 0.4}, {"small", 0.1}}
	out := PunishBelow(v, 0.5, 0.5, 0.15)
	m := out.Map()
	if m["big"] != 0.9 {
		t.Errorf("big should be untouched: %v", out)
	}
	if math.Abs(m["mid"]-0.2) > 1e-12 {
		t.Errorf("mid should be punished to 0.2: %v", out)
	}
	if _, ok := m["small"]; ok {
		t.Errorf("small should be removed: %v", out)
	}
}

func TestVectorSum(t *testing.T) {
	v := Vector{{"a", 3}, {"b", 2}, {"c", 1}}
	if v.Sum() != 6 {
		t.Fatalf("Sum = %v", v.Sum())
	}
}

func TestSortVectorDeterministic(t *testing.T) {
	v := Vector{{"b", 1}, {"a", 1}, {"c", 2}}
	SortVector(v)
	if v[0].Term != "c" || v[1].Term != "a" || v[2].Term != "b" {
		t.Fatalf("SortVector = %v", v)
	}
}

// Property: NormalizeMax output weights are always within [0,1] and ordering
// is preserved.
func TestNormalizeMaxProperty(t *testing.T) {
	f := func(ws []float64) bool {
		v := make(Vector, 0, len(ws))
		for i, w := range ws {
			if math.IsNaN(w) || math.IsInf(w, 0) {
				continue
			}
			v = append(v, Entry{Term: string(rune('a' + i%26)), Weight: math.Abs(w)})
		}
		SortVector(v)
		n := NormalizeMax(v)
		for i, e := range n {
			if e.Weight < 0 || e.Weight > 1+1e-9 {
				return false
			}
			if i > 0 && n[i-1].Weight < e.Weight {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: tf·idf vector is sorted decreasing.
func TestTFIDFSortedProperty(t *testing.T) {
	f := func(idx []uint8) bool {
		pool := []string{"iraq", "war", "cuba", "policy", "debate", "vote", "new", "term"}
		terms := make([]string, len(idx))
		for i, x := range idx {
			terms[i] = pool[int(x)%len(pool)]
		}
		v := TFIDF(idf, terms)
		return sort.SliceIsSorted(v, func(i, j int) bool {
			if v[i].Weight != v[j].Weight {
				return v[i].Weight > v[j].Weight
			}
			return v[i].Term < v[j].Term
		})
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
