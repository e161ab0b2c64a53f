package ranksvm

import (
	"math"
	"math/rand"
)

// rbf computes the RBF kernel exp(−γ‖a−b‖²).
func rbf(a, b []float64, gamma float64) float64 {
	d := 0.0
	for i := range a {
		diff := a[i] - b[i]
		d += float64(diff * diff)
	}
	return expNeg(gamma * d)
}

// expNeg computes e^{-x} for x ≥ 0 with a fast cutoff for large arguments.
func expNeg(x float64) float64 {
	if x > 40 {
		return 0
	}
	// math.Exp is fine; this wrapper only short-circuits the tail.
	return math.Exp(-x)
}

// trainRBF runs kernelized dual coordinate descent over preference pairs.
// The Gram entry between pairs p=(p+,p−) and q=(q+,q−) in feature space is
//
//	K(p+,q+) − K(p+,q−) − K(p−,q+) + K(p−,q−)
//
// Alphas are optimized one at a time against the current functional scores,
// which are maintained incrementally.
func trainRBF(std [][]float64, pairs []pair, opts Options, rng *rand.Rand) []SupportPair {
	n := len(pairs)
	alpha := make([]float64, n)
	// score[p] = Σ_q alpha_q Q(p,q); maintained incrementally.
	score := make([]float64, n)

	// Cache the diagonal Q(p,p).
	qpp := make([]float64, n)
	for p, pr := range pairs {
		qpp[p] = 2 - 2*rbf(std[pr.pos], std[pr.neg], opts.Gamma)
		if qpp[p] < 1e-12 {
			qpp[p] = 1e-12
		}
	}

	pairK := func(p, q int) float64 {
		pp, qq := pairs[p], pairs[q]
		return rbf(std[pp.pos], std[qq.pos], opts.Gamma) -
			rbf(std[pp.pos], std[qq.neg], opts.Gamma) -
			rbf(std[pp.neg], std[qq.pos], opts.Gamma) +
			rbf(std[pp.neg], std[qq.neg], opts.Gamma)
	}

	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	for iter := 0; iter < opts.MaxIter; iter++ {
		rng.Shuffle(n, func(x, y int) { order[x], order[y] = order[y], order[x] })
		maxViolation := 0.0
		for _, p := range order {
			g := score[p] - 1
			pg := g
			if alpha[p] <= 0 && g > 0 {
				pg = 0
			} else if alpha[p] >= opts.C && g < 0 {
				pg = 0
			}
			if abs(pg) > maxViolation {
				maxViolation = abs(pg)
			}
			if pg == 0 {
				continue
			}
			old := alpha[p]
			na := old - g/qpp[p]
			if na < 0 {
				na = 0
			} else if na > opts.C {
				na = opts.C
			}
			delta := na - old
			if delta == 0 {
				continue
			}
			alpha[p] = na
			for q := 0; q < n; q++ {
				score[q] += float64(delta * pairK(q, p))
			}
		}
		if maxViolation < eps {
			break
		}
	}

	var sps []SupportPair
	for p, a := range alpha {
		if a > 1e-9 {
			sps = append(sps, SupportPair{Alpha: a, Pos: std[pairs[p].pos], Neg: std[pairs[p].neg]})
		}
	}
	return sps
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
