// Fixture for the determinism analyzer: this package path is inside the
// deterministic-pipeline scope, so wall-clock reads, the global math/rand
// source, and unsorted map emissions must all be flagged.
package clicksim

import (
	"math/rand"
	"sort"
	"time"
)

// --- flagging cases ---

func stampClicks() int64 {
	return time.Now().Unix() // want `time.Now reads the wall clock`
}

func elapsed(start time.Time) time.Duration {
	return time.Since(start) // want `time.Since reads the wall clock`
}

func globalDraw() int {
	return rand.Intn(10) // want `global math/rand source \(rand.Intn\)`
}

func globalShuffle(xs []int) {
	rand.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] }) // want `global math/rand source \(rand.Shuffle\)`
}

func unsortedEmission(counts map[string]int) []string {
	var out []string
	for k := range counts {
		out = append(out, k) // want `out is appended to while ranging over a map and returned without a sort`
	}
	return out
}

func mapOrderSum(weights map[string]float64) float64 {
	sum, scale := 0.0, 1.0
	for _, w := range weights {
		sum += w   // want `float sum \+= across a map range`
		scale *= w // want `float scale \*= across a map range`
	}
	return sum * scale
}

// --- non-flagging cases ---

// Injected source: constructing from a caller seed is the approved shape.
func injectedDraw(rng *rand.Rand) int {
	return rng.Intn(10)
}

func constructorAllowed(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

// Sorted emission: the map order never reaches the caller.
func sortedEmission(counts map[string]int) []string {
	var out []string
	for k := range counts {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Project-convention sort helper recognized by name.
func helperSortedEmission(counts map[string]int) []string {
	var out []string
	for k := range counts {
		out = append(out, k)
	}
	sortKeys(out)
	return out
}

func sortKeys(keys []string) { sort.Strings(keys) }

// Not returned: local accumulation order is invisible to the caller.
func notReturned(counts map[string]int) int {
	var all []string
	for k := range counts {
		all = append(all, k)
	}
	return len(all)
}

// Per-key and integer accumulation, and a float declared inside the loop,
// do not depend on the iteration order.
func orderFreeSums(weights map[string]float64, byKey map[string]float64) (int, float64) {
	n := 0
	last := 0.0
	for k, w := range weights {
		byKey[k] += w
		n += len(k)
		local := 0.0
		local += w
		last = local
	}
	return n, last
}
