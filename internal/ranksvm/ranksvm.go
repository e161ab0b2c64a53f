// Package ranksvm is a from-scratch implementation of the ranking SVM the
// paper trains (paper §III, references [9] SVM-light's ranking mode and [10]
// liblinear): a pairwise learning-to-rank formulation where each training
// instance is an entity with its feature vector, the label is its CTR, and
// the model learns w such that w·x_i > w·x_j whenever CTR_i > CTR_j within
// the same document.
//
// Preference pairs (x_i, x_j) with label_i > label_j become classification
// examples z = x_i − x_j with target +1, and the L1-hinge-loss SVM
//
//	min_w  ½‖w‖² + C Σ max(0, 1 − w·z_p)
//
// is solved in the dual by coordinate descent (the liblinear algorithm).
// Both kernels the paper evaluated are provided: linear and RBF ("we test
// with both linear and the radial basis function kernels").
package ranksvm

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Instance is one ranking example.
type Instance struct {
	// Features is the feature vector.
	Features []float64
	// Label is the target (CTR in the paper); only within-group order and
	// magnitude differences matter.
	Label float64
	// Group identifies the query/document: preference pairs are formed only
	// within a group.
	Group int
}

// Kernel selects the SVM kernel.
type Kernel int

const (
	// Linear kernel: K(a,b) = a·b.
	Linear Kernel = iota
	// RBF kernel: K(a,b) = exp(−γ‖a−b‖²).
	RBF
)

// Options configures training. Zero values select defaults.
type Options struct {
	// C is the soft-margin cost. Default 1.
	C float64
	// Kernel selects linear (default) or RBF.
	Kernel Kernel
	// Gamma is the RBF width. Default 1/numFeatures.
	Gamma float64
	// MaxIter is the maximum number of dual-coordinate-descent passes.
	// Default 200 (linear), 60 (RBF).
	MaxIter int
	// MaxPairsPerGroup caps the number of preference pairs sampled per
	// group (0 = all pairs).
	MaxPairsPerGroup int
	// Seed drives pair sampling and coordinate shuffling.
	Seed int64
}

// The solver's fixed tolerances.
const (
	// eps is the stopping tolerance on the maximal projected-gradient
	// violation.
	eps = 1e-3
	// minLabelDiff: pairs whose label difference is not above this are
	// skipped (strict inequality only).
	minLabelDiff = 1e-9
)

func (o Options) withDefaults(kernel Kernel) Options {
	if o.C == 0 {
		o.C = 1
	}
	if o.MaxIter == 0 {
		if kernel == RBF {
			o.MaxIter = 60
		} else {
			o.MaxIter = 200
		}
	}
	return o
}

// Model is a trained ranking function.
type Model struct {
	// Kernel is the kernel the model was trained with.
	Kernel Kernel
	// Weights is the primal weight vector (linear kernel only).
	Weights []float64
	// Gamma is the RBF width (RBF only).
	Gamma float64
	// SupportPairs are the support preference pairs with their dual
	// coefficients (RBF only).
	SupportPairs []SupportPair
	// Mean and Scale are the feature standardization parameters applied
	// before scoring.
	Mean, Scale []float64
}

// SupportPair is one support vector pair of the kernelized ranker.
type SupportPair struct {
	Alpha    float64
	Pos, Neg []float64 // standardized feature vectors of the preferred and non-preferred instance
}

// pair is an internal preference pair over standardized features.
type pair struct{ pos, neg int }

// ErrNoPairs is returned when no valid preference pairs can be formed.
var ErrNoPairs = errors.New("ranksvm: no preference pairs in training data")

// Train learns a ranking model from instances.
func Train(instances []Instance, opts Options) (*Model, error) {
	opts = opts.withDefaults(opts.Kernel)
	if len(instances) == 0 {
		return nil, ErrNoPairs
	}
	dim := len(instances[0].Features)
	for i := range instances {
		if len(instances[i].Features) != dim {
			return nil, fmt.Errorf("ranksvm: instance %d has %d features, want %d", i, len(instances[i].Features), dim)
		}
	}
	if opts.Kernel == RBF && opts.Gamma == 0 {
		opts.Gamma = 1 / float64(dim)
	}

	mean, scale := standardizer(instances, dim)
	std := make([][]float64, len(instances))
	for i := range instances {
		std[i] = applyStandardize(instances[i].Features, mean, scale)
	}

	rng := rand.New(rand.NewSource(opts.Seed))
	pairs := buildPairs(instances, opts, rng)
	if len(pairs) == 0 {
		return nil, ErrNoPairs
	}

	m := &Model{Kernel: opts.Kernel, Gamma: opts.Gamma, Mean: mean, Scale: scale}
	switch opts.Kernel {
	case Linear:
		m.Weights = trainLinear(std, pairs, opts, rng)
	case RBF:
		m.SupportPairs = trainRBF(std, pairs, opts, rng)
	default:
		return nil, fmt.Errorf("ranksvm: unknown kernel %d", opts.Kernel)
	}
	return m, nil
}

// standardizer computes per-feature mean and standard deviation (unit scale
// for constant features).
func standardizer(instances []Instance, dim int) (mean, scale []float64) {
	mean = make([]float64, dim)
	scale = make([]float64, dim)
	n := float64(len(instances))
	for _, inst := range instances {
		for d, v := range inst.Features {
			mean[d] += v
		}
	}
	for d := range mean {
		mean[d] /= n
	}
	for _, inst := range instances {
		for d, v := range inst.Features {
			diff := v - mean[d]
			scale[d] += float64(diff * diff)
		}
	}
	for d := range scale {
		scale[d] = math.Sqrt(scale[d] / n)
		if scale[d] < 1e-12 {
			scale[d] = 1
		}
	}
	return mean, scale
}

func applyStandardize(x, mean, scale []float64) []float64 {
	out := make([]float64, len(x))
	for d := range x {
		out[d] = (x[d] - mean[d]) / scale[d]
	}
	return out
}

// buildPairs forms preference pairs within each group: (i,j) with
// label_i − label_j > minLabelDiff.
func buildPairs(instances []Instance, opts Options, rng *rand.Rand) []pair {
	groups := make(map[int][]int)
	for i := range instances {
		groups[instances[i].Group] = append(groups[instances[i].Group], i)
	}
	gids := make([]int, 0, len(groups))
	for g := range groups {
		gids = append(gids, g)
	}
	sort.Ints(gids)
	var pairs []pair
	for _, g := range gids {
		idxs := groups[g]
		var groupPairs []pair
		for a := 0; a < len(idxs); a++ {
			for b := 0; b < len(idxs); b++ {
				if a == b {
					continue
				}
				i, j := idxs[a], idxs[b]
				if instances[i].Label-instances[j].Label > minLabelDiff {
					groupPairs = append(groupPairs, pair{pos: i, neg: j})
				}
			}
		}
		if opts.MaxPairsPerGroup > 0 && len(groupPairs) > opts.MaxPairsPerGroup {
			rng.Shuffle(len(groupPairs), func(x, y int) {
				groupPairs[x], groupPairs[y] = groupPairs[y], groupPairs[x]
			})
			groupPairs = groupPairs[:opts.MaxPairsPerGroup]
		}
		pairs = append(pairs, groupPairs...)
	}
	return pairs
}

// trainLinear runs dual coordinate descent on the pair difference vectors,
// maintaining the primal w.
func trainLinear(std [][]float64, pairs []pair, opts Options, rng *rand.Rand) []float64 {
	dim := len(std[0])
	w := make([]float64, dim)
	alpha := make([]float64, len(pairs))
	// Difference vectors and their squared norms.
	diffs := make([][]float64, len(pairs))
	qii := make([]float64, len(pairs))
	for p, pr := range pairs {
		z := make([]float64, dim)
		q := 0.0
		for d := range z {
			z[d] = std[pr.pos][d] - std[pr.neg][d]
			q += float64(z[d] * z[d])
		}
		if q < 1e-12 {
			q = 1e-12
		}
		diffs[p] = z
		qii[p] = q
	}
	order := make([]int, len(pairs))
	for i := range order {
		order[i] = i
	}
	for iter := 0; iter < opts.MaxIter; iter++ {
		rng.Shuffle(len(order), func(x, y int) { order[x], order[y] = order[y], order[x] })
		maxViolation := 0.0
		for _, p := range order {
			z := diffs[p]
			score := 0.0
			for d := range z {
				score += float64(w[d] * z[d])
			}
			g := score - 1 // gradient of dual objective wrt alpha_p
			// Projected gradient.
			pg := g
			if alpha[p] <= 0 && g > 0 {
				pg = 0
			} else if alpha[p] >= opts.C && g < 0 {
				pg = 0
			}
			if math.Abs(pg) > maxViolation {
				maxViolation = math.Abs(pg)
			}
			if pg == 0 {
				continue
			}
			old := alpha[p]
			na := old - g/qii[p]
			if na < 0 {
				na = 0
			} else if na > opts.C {
				na = opts.C
			}
			alpha[p] = na
			delta := na - old
			if delta != 0 {
				for d := range z {
					w[d] += float64(delta * z[d])
				}
			}
		}
		if maxViolation < eps {
			break
		}
	}
	return w
}

// Score returns the ranking score of a raw (unstandardized) feature vector.
// Higher is better.
func (m *Model) Score(features []float64) float64 {
	return m.ScoreBuf(features, nil)
}

// ScoreBuf is Score using buf as the RBF kernel's standardization scratch,
// so a scoring loop can reuse one buffer across calls instead of allocating
// per vector; the linear kernel needs none. features is not modified; buf's
// contents are overwritten.
//
//kw:hotpath
func (m *Model) ScoreBuf(features, buf []float64) float64 {
	switch m.Kernel {
	case Linear:
		return m.AddTerms(0, 0, features)
	case RBF:
		x := append(buf[:0], features...)
		for d := range x {
			x[d] = (x[d] - m.Mean[d]) / m.Scale[d]
		}
		s := 0.0
		for _, sp := range m.SupportPairs {
			s += float64(sp.Alpha * (rbf(sp.Pos, x, m.Gamma) - rbf(sp.Neg, x, m.Gamma)))
		}
		return s
	}
	return 0
}

// AddTerms adds a linear model's terms w[d]·(x[d] − mean[d])/scale[d] for
// the raw features x, which sit at indices from, from+1, … of the model's
// layout, to sum in ascending d. A vector summed in runs, each run's sum
// fed to the next, gets exactly ScoreBuf's bits: ScoreBuf is
// AddTerms(0, 0, features).
//
//kw:hotpath
func (m *Model) AddTerms(sum float64, from int, x []float64) float64 {
	w, mean, scale := m.Weights[from:], m.Mean[from:], m.Scale[from:]
	for d, v := range x {
		sum += float64(w[d] * ((v - mean[d]) / scale[d]))
	}
	return sum
}
