package main

import (
	"math"
	"math/rand"
	"sort"
)

// percentile returns the q-quantile (0 < q < 1) of sorted by the
// nearest-rank rule, and whether the sample supports it: a percentile is
// reported only when at least ten samples lie beyond it, so p99 needs more
// than 1,000 samples and p99.9 more than 10,000.
func percentile(sorted []int64, q float64) (v int64, ok bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(q*float64(n)-1e-9)) - 1 // nearest rank; the epsilon absorbs q*n landing a hair above a whole number
	if rank < 0 {
		rank = 0
	}
	if rank >= n {
		rank = n - 1
	}
	return sorted[rank], n-1-rank >= 10
}

// supported returns the q-quantile when the sample supports it and
// otherwise the highest of p99, p90 and the median that it does support.
func supported(sorted []int64, q float64) int64 {
	for _, try := range []float64{q, 0.99, 0.9} {
		if v, ok := percentile(sorted, try); ok && try <= q {
			return v
		}
	}
	v, _ := percentile(sorted, 0.5)
	return v
}

// median of an unsorted float sample (the mean of the two middle values
// when the count is even).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the q-quantile of an unsorted float sample, interpolating
// linearly between the two nearest ranks. Returns 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// zipf draws ranks in [0, n) with P(k) proportional to 1/(k+1)^s, from its
// own seeded source: the same (seed, s, n) gives the same sequence.
type zipf struct{ z *rand.Zipf }

func newZipf(seed int64, s float64, n int) zipf {
	return zipf{rand.NewZipf(rand.New(rand.NewSource(seed)), s, 1, uint64(n-1))}
}

func (z zipf) next() int { return int(z.z.Uint64()) }
