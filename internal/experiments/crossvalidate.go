// Package experiments is the paper's evaluation apparatus (§V, §VI and the
// discussion sections): the static baselines, five-fold cross-validation
// over click preference pairs, Tables II–VI, the production A/B simulation
// and the extension experiments, each a function over a built *core.System.
// It measures the system and is no part of it: only cmd/experiments, tests
// and examples import it (make island keeps it out of every other binary).
package experiments

import (
	"fmt"

	"contextrank/internal/core"
	"contextrank/internal/eval"
	"contextrank/internal/par"
)

// Result is the outcome of evaluating one method: the paper's two metrics.
type Result struct {
	// Method is the evaluated method's name.
	Method string
	// WeightedErrorRate is Eq. 5 over all test preference pairs.
	WeightedErrorRate float64
	// ErrorRate is the unweighted pairwise error rate.
	ErrorRate float64
	// NDCG maps k -> mean NDCG@k over test groups (k = 1, 2, 3 as in the
	// figures).
	NDCG map[int]float64
}

// String formats the result like a row of the paper's tables.
func (r Result) String() string {
	return fmt.Sprintf("%-32s weighted=%6.2f%%  plain=%6.2f%%  ndcg@1=%.3f ndcg@2=%.3f ndcg@3=%.3f",
		r.Method, 100*r.WeightedErrorRate, 100*r.ErrorRate, r.NDCG[1], r.NDCG[2], r.NDCG[3])
}

// NDCGKs are the cutoffs reported in Figures 1-3.
var NDCGKs = []int{1, 2, 3}

// foldEval is one fold's evaluation partials, merged in fold order.
type foldEval struct {
	acc     eval.Accumulator
	ndcgSum map[int]float64
	ndcgN   int
}

// CrossValidate evaluates a method with k-fold cross-validation over
// groups, the paper's protocol ("we randomly partitioned our document set
// into five subsets, used four subsets for training and the remaining
// subset for testing ... repeated five times"). Static methods are fitted
// once per fold too (a no-op) so the same code path measures everything.
// The NDCG bucketizer is built from all CTRs in the dataset.
//
// The folds fan out across GOMAXPROCS workers. Each fold fits its own
// clone of the method (Method.CloneMethod) and evaluates its test groups in
// index order; the per-fold partials are merged in fold order, so the
// result is bit-identical at any GOMAXPROCS.
func CrossValidate(groups []core.Group, m core.Method, folds int, seed int64) (Result, error) {
	if folds <= 0 {
		folds = 5
	}
	bucketizer := eval.NewBucketizer(core.AllCTRs(groups))
	judge := bucketizer.Judgement
	foldIdx := eval.KFold(len(groups), folds, seed)

	evalFold := func(f int) (foldEval, error) {
		method := m.CloneMethod()
		test := foldIdx[f]
		train := without(groups, test)
		fe := foldEval{ndcgSum: make(map[int]float64, len(NDCGKs))}
		if err := method.Fit(train); err != nil {
			return fe, fmt.Errorf("fold %d: %w", f, err)
		}
		for _, i := range test {
			g := &groups[i]
			pred := method.Score(g)
			truth := g.CTRs()
			fe.acc.Add(pred, truth)
			for _, k := range NDCGKs {
				fe.ndcgSum[k] += eval.NDCG(pred, truth, k, judge)
			}
			fe.ndcgN++
		}
		return fe, nil
	}

	partials, err := par.MapErr(0, len(foldIdx), evalFold)
	if err != nil {
		return Result{}, err
	}

	var acc eval.Accumulator
	ndcgSum := make(map[int]float64, len(NDCGKs))
	ndcgN := 0
	for _, fe := range partials {
		acc.Merge(fe.acc)
		for _, k := range NDCGKs {
			ndcgSum[k] += fe.ndcgSum[k]
		}
		ndcgN += fe.ndcgN
	}

	res := Result{
		Method:            m.Name(),
		WeightedErrorRate: acc.WeightedErrorRate(),
		ErrorRate:         acc.ErrorRate(),
		NDCG:              make(map[int]float64, len(NDCGKs)),
	}
	for _, k := range NDCGKs {
		res.NDCG[k] = ndcgSum[k] / float64(ndcgN)
	}
	return res, nil
}

// without returns the groups whose index is not in test: a fold's training
// set, in dataset order.
func without(groups []core.Group, test []int) []core.Group {
	inTest := make(map[int]bool, len(test))
	for _, i := range test {
		inTest[i] = true
	}
	train := make([]core.Group, 0, len(groups)-len(test))
	for i := range groups {
		if !inTest[i] {
			train = append(train, groups[i])
		}
	}
	return train
}

// CompareMethods cross-validates two methods on identical folds and runs a
// paired bootstrap over the test documents to decide whether the weighted
// error difference is statistically significant. Negative DeltaObserved
// means method a is better.
func CompareMethods(groups []core.Group, a, b core.Method, folds int, seed int64) (eval.BootstrapResult, error) {
	if folds <= 0 {
		folds = 5
	}
	var docs []eval.DocPair
	foldIdx := eval.KFold(len(groups), folds, seed)
	for f := 0; f < len(foldIdx); f++ {
		test := foldIdx[f]
		train := without(groups, test)
		if err := a.Fit(train); err != nil {
			return eval.BootstrapResult{}, fmt.Errorf("fold %d (%s): %w", f, a.Name(), err)
		}
		if err := b.Fit(train); err != nil {
			return eval.BootstrapResult{}, fmt.Errorf("fold %d (%s): %w", f, b.Name(), err)
		}
		for _, i := range test {
			g := &groups[i]
			docs = append(docs, eval.DocPair{
				PredA: a.Score(g),
				PredB: b.Score(g),
				Truth: g.CTRs(),
			})
		}
	}
	return eval.PairedBootstrap(docs, 1000, seed+1), nil
}
