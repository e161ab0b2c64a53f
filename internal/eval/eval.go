// Package eval implements the paper's evaluation metrics: the pairwise
// error rate, the CTR-weighted error rate (paper Eq. 5), the NDCG measure
// with CTR-bucket judgements (paper Eq. 6), and the k-fold cross-validation
// split used in §V-A.
package eval

import (
	"math"
	"math/rand"
	"sort"
)

// Accumulator aggregates pairwise ranking mistakes over many documents, as
// the paper reports a single error rate over all preference pairs in the
// test set. Predicted ties count as half a mistake — the expectation of the
// paper's "in the case of ties, we assume a random ordering of concepts".
type Accumulator struct {
	mistakes, pairs   float64
	wMistakes, wTotal float64
}

// Add registers one document's predicted scores and true CTRs (parallel
// slices). Every ordered pair with truth[i] > truth[j] is a preference pair;
// it is a mistake if pred[i] < pred[j], and half a mistake if pred[i] ==
// pred[j].
func (a *Accumulator) Add(pred, truth []float64) {
	for i := range truth {
		for j := range truth {
			diff := truth[i] - truth[j]
			if diff <= 0 {
				continue
			}
			a.pairs++
			a.wTotal += diff
			switch {
			case pred[i] < pred[j]:
				a.mistakes++
				a.wMistakes += diff
			case pred[i] <= pred[j]: // not < and not >: a predicted tie
				a.mistakes += 0.5
				a.wMistakes += float64(0.5 * diff)
			}
		}
	}
}

// Merge folds another accumulator's tallies into a. Merging per-fold
// accumulators in fold order reproduces, bit for bit, what serial
// accumulation over the same fold/document order would produce — the
// property the parallel cross-validation driver relies on.
func (a *Accumulator) Merge(b Accumulator) {
	a.mistakes += b.mistakes
	a.pairs += b.pairs
	a.wMistakes += b.wMistakes
	a.wTotal += b.wTotal
}

// ErrorRate returns |mistaken pairs| / |all pairs| (the unweighted metric
// of references [22,23,24]).
func (a *Accumulator) ErrorRate() float64 {
	if a.pairs == 0 {
		return 0
	}
	return a.mistakes / a.pairs
}

// WeightedErrorRate returns Σ_mistakes ΔCTR / Σ_allpairs ΔCTR — paper Eq. 5,
// which "punish[es] mistakes according to their CTR differences".
func (a *Accumulator) WeightedErrorRate() float64 {
	if a.wTotal == 0 {
		return 0
	}
	return a.wMistakes / a.wTotal
}

// NumBuckets is the CTR bucket resolution of the paper's gain function:
// "bucketNo() simply returns a bucket number between 0 and 1000 considering
// all the CTR values observed in the system in increasing order. By dividing
// the bucket number by 100, we basically obtain a judgement score between
// 0.00 and 10.00."
const NumBuckets = 1000

// Bucketizer maps CTR values to judgement scores via rank quantiles over
// all CTRs observed in the system.
type Bucketizer struct {
	sorted []float64
}

// NewBucketizer builds a bucketizer from every CTR observed.
func NewBucketizer(allCTRs []float64) *Bucketizer {
	s := make([]float64, len(allCTRs))
	copy(s, allCTRs)
	sort.Float64s(s)
	return &Bucketizer{sorted: s}
}

// Bucket returns the bucket number of ctr in [0, NumBuckets].
func (b *Bucketizer) Bucket(ctr float64) int {
	if len(b.sorted) == 0 {
		return 0
	}
	// Rank of ctr among observed values (first index > ctr).
	rank := sort.SearchFloat64s(b.sorted, ctr)
	// Extend to count equal values as included.
	for rank < len(b.sorted) && b.sorted[rank] <= ctr {
		rank++
	}
	return rank * NumBuckets / len(b.sorted)
}

// Judgement returns bucket/100, a score in [0,10].
func (b *Bucketizer) Judgement(ctr float64) float64 {
	return float64(b.Bucket(ctr)) / 100.0
}

// NDCG computes the normalized discounted cumulative gain at k for one
// document: pred are the model scores, truth the CTRs, and judge maps a CTR
// to the gain-function score (paper: judge = Bucketizer.Judgement). Gain is
// 2^score − 1 and the discount is ln(j+1) per Eq. 6; the result is
// normalized by the ideal ordering's DCG so a perfect ranking scores 1.0.
// Documents with zero ideal DCG return 1.0 (nothing to get wrong).
func NDCG(pred, truth []float64, k int, judge func(float64) float64) float64 {
	n := len(truth)
	if n == 0 {
		return 1
	}
	if k <= 0 || k > n {
		k = n
	}
	order := ArgsortDesc(pred)
	ideal := ArgsortDesc(truth)
	dcg, idcg := 0.0, 0.0
	for j := 0; j < k; j++ {
		discount := math.Log(float64(j) + 2) // ln(j+1) with 1-based j
		dcg += (math.Pow(2, judge(truth[order[j]])) - 1) / discount
		idcg += (math.Pow(2, judge(truth[ideal[j]])) - 1) / discount
	}
	if idcg == 0 {
		return 1
	}
	return dcg / idcg
}

// ArgsortDesc returns indexes sorted by decreasing value, stable.
func ArgsortDesc(v []float64) []int {
	idx := make([]int, len(v))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return v[idx[a]] > v[idx[b]] })
	return idx
}

// KFold assigns n items to k folds uniformly at random (deterministic in
// seed) and returns the folds as index slices. Used for the paper's
// "five-fold cross-validation process: We randomly partitioned our document
// set into five subsets".
func KFold(n, k int, seed int64) [][]int {
	if k <= 0 {
		k = 5
	}
	if k > n {
		k = n
	}
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(n)
	folds := make([][]int, k)
	for i, p := range perm {
		folds[i%k] = append(folds[i%k], p)
	}
	for _, f := range folds {
		sort.Ints(f)
	}
	return folds
}
