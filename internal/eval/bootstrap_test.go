package eval

import (
	"math/rand"
	"testing"
)

// genDocs builds documents where system A has accuracy accA of ordering
// each pair correctly and B accuracy accB.
func genDocs(rng *rand.Rand, n int, accA, accB float64) []DocPair {
	docs := make([]DocPair, n)
	for d := range docs {
		items := 4 + rng.Intn(4)
		truth := make([]float64, items)
		for i := range truth {
			truth[i] = rng.Float64() * 0.2
		}
		mk := func(acc float64) []float64 {
			pred := make([]float64, items)
			for i := range pred {
				if rng.Float64() < acc {
					pred[i] = truth[i]
				} else {
					pred[i] = rng.Float64() * 0.2
				}
			}
			return pred
		}
		docs[d] = DocPair{PredA: mk(accA), PredB: mk(accB), Truth: truth}
	}
	return docs
}

func TestBootstrapDetectsRealDifference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	docs := genDocs(rng, 300, 0.95, 0.3)
	res := PairedBootstrap(docs, 500, 2)
	if res.DeltaObserved >= 0 {
		t.Fatalf("A should have lower error: delta = %v", res.DeltaObserved)
	}
	if res.PValue >= 0.05 {
		t.Fatalf("large real difference not significant: %+v", res)
	}
	if res.CIHigh >= 0 {
		t.Fatalf("CI should exclude zero: [%v, %v]", res.CILow, res.CIHigh)
	}
}

func TestBootstrapNullDifference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	docs := genDocs(rng, 200, 0.6, 0.6)
	res := PairedBootstrap(docs, 500, 4)
	if res.PValue < 0.05 {
		t.Fatalf("identical systems reported significant: %+v", res)
	}
	if res.CILow > 0 || res.CIHigh < 0 {
		t.Fatalf("CI should cover zero: [%v, %v]", res.CILow, res.CIHigh)
	}
}

func TestBootstrapCIOrdering(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	docs := genDocs(rng, 100, 0.8, 0.5)
	res := PairedBootstrap(docs, 300, 6)
	if res.CILow > res.CIHigh {
		t.Fatalf("CI bounds inverted: [%v, %v]", res.CILow, res.CIHigh)
	}
	if res.DeltaObserved < res.CILow-0.1 || res.DeltaObserved > res.CIHigh+0.1 {
		t.Fatalf("observed delta far outside CI: %v vs [%v, %v]", res.DeltaObserved, res.CILow, res.CIHigh)
	}
}

func TestBootstrapEmpty(t *testing.T) {
	res := PairedBootstrap(nil, 100, 1)
	if res.DeltaObserved != 0 || res.PValue < 0.05 {
		t.Fatalf("empty input: %+v", res)
	}
}

func TestBootstrapDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	docs := genDocs(rng, 50, 0.9, 0.4)
	r1 := PairedBootstrap(docs, 200, 8)
	r2 := PairedBootstrap(docs, 200, 8)
	if r1 != r2 {
		t.Fatal("bootstrap not deterministic for fixed seed")
	}
}
