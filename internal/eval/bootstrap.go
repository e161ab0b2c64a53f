package eval

import (
	"math/rand"
	"sort"
)

// This file adds the statistical rigor the paper's comparisons imply: a
// paired bootstrap test over documents for the difference in weighted error
// rate between two rankings. "System A beats system B" is only meaningful
// if the improvement survives resampling of the evaluation documents.

// DocPair is one document's predictions under two systems plus the truth.
type DocPair struct {
	// PredA and PredB are the two systems' scores for the document's items.
	PredA, PredB []float64
	// Truth is the CTR labels.
	Truth []float64
}

// BootstrapResult summarizes the paired bootstrap.
type BootstrapResult struct {
	// DeltaObserved is weightedErr(A) − weightedErr(B) on the full set
	// (negative = A better).
	DeltaObserved float64
	// CILow and CIHigh bound the 95% percentile confidence interval of the
	// delta.
	CILow, CIHigh float64
	// PValue is the two-sided bootstrap p-value for delta = 0.
	PValue float64
	// Samples is the number of bootstrap resamples drawn.
	Samples int
}

// weightedDelta computes weightedErr(A) − weightedErr(B) over a multiset of
// document indexes.
func weightedDelta(docs []DocPair, idxs []int) float64 {
	var a, b Accumulator
	for _, i := range idxs {
		a.Add(docs[i].PredA, docs[i].Truth)
		b.Add(docs[i].PredB, docs[i].Truth)
	}
	return a.WeightedErrorRate() - b.WeightedErrorRate()
}

// PairedBootstrap resamples documents with replacement and estimates the
// sampling distribution of the weighted-error difference between systems A
// and B. samples <= 0 selects 1000.
func PairedBootstrap(docs []DocPair, samples int, seed int64) BootstrapResult {
	if samples <= 0 {
		samples = 1000
	}
	n := len(docs)
	res := BootstrapResult{Samples: samples, PValue: 1}
	if n == 0 {
		return res
	}
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	res.DeltaObserved = weightedDelta(docs, all)

	rng := rand.New(rand.NewSource(seed))
	deltas := make([]float64, samples)
	idxs := make([]int, n)
	signFlips := 0
	for s := 0; s < samples; s++ {
		for i := range idxs {
			idxs[i] = rng.Intn(n)
		}
		deltas[s] = weightedDelta(docs, idxs)
		// Count resamples where the delta crosses zero relative to the
		// observed direction.
		if (res.DeltaObserved < 0 && deltas[s] >= 0) ||
			(res.DeltaObserved > 0 && deltas[s] <= 0) ||
			res.DeltaObserved == 0 {
			signFlips++
		}
	}
	sort.Float64s(deltas)
	lo := int(0.025 * float64(samples))
	hi := int(0.975 * float64(samples))
	if hi >= samples {
		hi = samples - 1
	}
	res.CILow, res.CIHigh = deltas[lo], deltas[hi]
	// Two-sided bootstrap p-value.
	res.PValue = 2 * float64(signFlips) / float64(samples)
	if res.PValue > 1 {
		res.PValue = 1
	}
	return res
}
