package eval

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// The paper's worked example (§V-A.2): perfect ranking [A,B,C,D] with CTRs
// [0.15, 0.05, 0.02, 0.01]; prediction R1=[A,B,D,C] and R2=[B,A,C,D] both
// have plain error rate 16.67%, but weighted error rates 2.22% and 22.22%.
func paperExample() (truth []float64, r1, r2 []float64) {
	truth = []float64{0.15, 0.05, 0.02, 0.01} // A, B, C, D
	// Encode predicted rankings as descending scores by position.
	// R1 = [A,B,D,C]: A=4, B=3, D=2, C=1.
	r1 = []float64{4, 3, 1, 2}
	// R2 = [B,A,C,D]: B=4, A=3, C=2, D=1.
	r2 = []float64{3, 4, 2, 1}
	return
}

// doc accumulates the pairs of a single document.
func doc(pred, truth []float64) *Accumulator {
	var a Accumulator
	a.Add(pred, truth)
	return &a
}

func TestErrorRatePaperExample(t *testing.T) {
	truth, r1, r2 := paperExample()
	if got := doc(r1, truth).ErrorRate(); math.Abs(got-1.0/6) > 1e-9 {
		t.Fatalf("R1 error rate = %v, want 1/6", got)
	}
	if got := doc(r2, truth).ErrorRate(); math.Abs(got-1.0/6) > 1e-9 {
		t.Fatalf("R2 error rate = %v, want 1/6", got)
	}
}

func TestWeightedErrorRatePaperExample(t *testing.T) {
	truth, r1, r2 := paperExample()
	// Total ΔCTR over the 6 pairs: (A,B).10+(A,C).13+(A,D).14+(B,C).03+(B,D).04+(C,D).01 = 0.45.
	// R1's only mistake is (C,D): 0.01/0.45 = 2.22%.
	if got := doc(r1, truth).WeightedErrorRate(); math.Abs(got-0.01/0.45) > 1e-9 {
		t.Fatalf("R1 weighted = %v, want %.4f", got, 0.01/0.45)
	}
	// R2's only mistake is (A,B): 0.10/0.45 = 22.22%.
	if got := doc(r2, truth).WeightedErrorRate(); math.Abs(got-0.10/0.45) > 1e-9 {
		t.Fatalf("R2 weighted = %v, want %.4f", got, 0.10/0.45)
	}
}

func TestPerfectAndReversedRankings(t *testing.T) {
	truth := []float64{0.4, 0.3, 0.2, 0.1}
	perfect := []float64{4, 3, 2, 1}
	reversed := []float64{1, 2, 3, 4}
	if got := doc(perfect, truth).WeightedErrorRate(); got != 0 {
		t.Fatalf("perfect ranking error = %v", got)
	}
	if got := doc(reversed, truth).WeightedErrorRate(); got != 1 {
		t.Fatalf("reversed ranking error = %v", got)
	}
}

func TestTiesCountHalf(t *testing.T) {
	truth := []float64{0.2, 0.1}
	tied := []float64{1, 1}
	if got := doc(tied, truth).ErrorRate(); got != 0.5 {
		t.Fatalf("tied error = %v, want 0.5", got)
	}
	if got := doc(tied, truth).WeightedErrorRate(); got != 0.5 {
		t.Fatalf("tied weighted = %v, want 0.5", got)
	}
}

// Random rankings must converge to ~50% error — the paper's random baseline
// observes 50.01%.
func TestRandomBaselineNearHalf(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var a Accumulator
	for doc := 0; doc < 2000; doc++ {
		n := 2 + rng.Intn(8)
		truth := make([]float64, n)
		pred := make([]float64, n)
		for i := range truth {
			truth[i] = rng.Float64() * 0.2
			pred[i] = rng.Float64()
		}
		a.Add(pred, truth)
	}
	if got := a.WeightedErrorRate(); math.Abs(got-0.5) > 0.02 {
		t.Fatalf("random weighted error = %v, want ~0.5", got)
	}
	if got := a.ErrorRate(); math.Abs(got-0.5) > 0.02 {
		t.Fatalf("random error = %v, want ~0.5", got)
	}
}

func TestAccumulatorEmpty(t *testing.T) {
	var a Accumulator
	if a.ErrorRate() != 0 || a.WeightedErrorRate() != 0 || a.pairs != 0 {
		t.Fatal("empty accumulator should report zeros")
	}
}

func TestNDCGPaperStyleExample(t *testing.T) {
	// With judge = CTR*10 (the paper's simplified intuition): R1 ndcg@1 = 1,
	// R2 ndcg@1 = (2^0.5-1)/(2^1.5-1) ≈ 0.2266.
	truth, r1, r2 := paperExample()
	judge := func(ctr float64) float64 { return ctr * 10 }
	if got := NDCG(r1, truth, 1, judge); math.Abs(got-1) > 1e-9 {
		t.Fatalf("R1 ndcg@1 = %v", got)
	}
	want := (math.Pow(2, 0.5) - 1) / (math.Pow(2, 1.5) - 1)
	if got := NDCG(r2, truth, 1, judge); math.Abs(got-want) > 1e-9 {
		t.Fatalf("R2 ndcg@1 = %v, want %v", got, want)
	}
}

func TestNDCGBounds(t *testing.T) {
	judge := func(ctr float64) float64 { return ctr * 10 }
	truth := []float64{0.3, 0.2, 0.1}
	for _, pred := range [][]float64{{3, 2, 1}, {1, 2, 3}, {2, 2, 2}} {
		for k := 1; k <= 3; k++ {
			got := NDCG(pred, truth, k, judge)
			if got < 0 || got > 1+1e-12 {
				t.Fatalf("NDCG out of [0,1]: %v", got)
			}
		}
	}
	// Perfect prediction is always 1.
	if got := NDCG([]float64{3, 2, 1}, truth, 2, judge); math.Abs(got-1) > 1e-12 {
		t.Fatalf("perfect NDCG = %v", got)
	}
}

func TestNDCGEdgeCases(t *testing.T) {
	judge := func(ctr float64) float64 { return ctr }
	if got := NDCG(nil, nil, 1, judge); got != 1 {
		t.Fatalf("empty NDCG = %v", got)
	}
	// All-zero CTRs: ideal DCG 0 -> 1.0 by convention.
	if got := NDCG([]float64{1, 2}, []float64{0, 0}, 2, judge); got != 1 {
		t.Fatalf("zero-gain NDCG = %v", got)
	}
	// k beyond n clamps.
	if got := NDCG([]float64{2, 1}, []float64{0.2, 0.1}, 99, judge); math.Abs(got-1) > 1e-12 {
		t.Fatalf("k>n NDCG = %v", got)
	}
}

func TestBucketizer(t *testing.T) {
	ctrs := make([]float64, 100)
	for i := range ctrs {
		ctrs[i] = float64(i) / 100.0
	}
	b := NewBucketizer(ctrs)
	if got := b.Bucket(-1); got != 0 {
		t.Fatalf("below-min bucket = %d", got)
	}
	if got := b.Bucket(2.0); got != NumBuckets {
		t.Fatalf("above-max bucket = %d", got)
	}
	if lo, hi := b.Bucket(0.10), b.Bucket(0.90); lo >= hi {
		t.Fatalf("buckets not monotone: %d >= %d", lo, hi)
	}
	if j := b.Judgement(0.99); j < 9.0 || j > 10.0 {
		t.Fatalf("top judgement = %v", j)
	}
}

func TestBucketizerEmpty(t *testing.T) {
	b := NewBucketizer(nil)
	if b.Bucket(0.5) != 0 || b.Judgement(0.5) != 0 {
		t.Fatal("empty bucketizer should return 0")
	}
}

// Property: bucket numbers are monotone in CTR.
func TestBucketMonotoneProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	ctrs := make([]float64, 500)
	for i := range ctrs {
		ctrs[i] = rng.Float64() * 0.3
	}
	b := NewBucketizer(ctrs)
	f := func(x, y float64) bool {
		x, y = math.Abs(x), math.Abs(y)
		if x > y {
			x, y = y, x
		}
		return b.Bucket(x) <= b.Bucket(y)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestKFold(t *testing.T) {
	folds := KFold(23, 5, 7)
	if len(folds) != 5 {
		t.Fatalf("folds = %d", len(folds))
	}
	seen := make(map[int]int)
	for _, f := range folds {
		for _, i := range f {
			seen[i]++
		}
	}
	if len(seen) != 23 {
		t.Fatalf("folds cover %d items, want 23", len(seen))
	}
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("item %d in %d folds", i, c)
		}
	}
	// Balanced within 1.
	for _, f := range folds {
		if len(f) < 4 || len(f) > 5 {
			t.Fatalf("unbalanced fold size %d", len(f))
		}
	}
}

func TestKFoldDeterministic(t *testing.T) {
	a := KFold(50, 5, 3)
	b := KFold(50, 5, 3)
	for i := range a {
		if len(a[i]) != len(b[i]) {
			t.Fatal("not deterministic")
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatal("not deterministic")
			}
		}
	}
	c := KFold(50, 5, 4)
	same := true
	for i := range a {
		if len(a[i]) != len(c[i]) {
			same = false
			break
		}
		for j := range a[i] {
			if a[i][j] != c[i][j] {
				same = false
			}
		}
	}
	if same {
		t.Fatal("different seeds gave identical folds")
	}
}

func TestKFoldEdge(t *testing.T) {
	if got := KFold(3, 5, 1); len(got) != 3 {
		t.Fatalf("k>n should clamp: %d folds", len(got))
	}
	if got := KFold(10, 0, 1); len(got) != 5 {
		t.Fatalf("k=0 default: %d folds", len(got))
	}
}

func TestMeanNDCG(t *testing.T) {
	judge := func(ctr float64) float64 { return ctr * 10 }
	truth := []float64{0.3, 0.2, 0.1}
	perfect := NDCG([]float64{3, 2, 1}, truth, 3, judge)
	reversed := NDCG([]float64{1, 2, 3}, truth, 3, judge)
	if got := (perfect + reversed) / 2; got <= 0.5 || got >= 1 {
		t.Fatalf("mean NDCG of a perfect and a reversed ranking = %v", got)
	}
}
