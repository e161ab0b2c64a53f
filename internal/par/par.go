// Package par is the deterministic-parallelism substrate: a bounded worker
// pool that maps a function over an index range and collects results in
// input order, so the output is bit-identical regardless of GOMAXPROCS,
// worker count, or goroutine scheduling.
//
// The contract every caller relies on (and the kwlint orderedfanout
// analyzer enforces elsewhere):
//
//   - work unit i depends only on i and on state that is read-only for the
//     duration of the call;
//   - results are written to index-addressed slots, never collected in
//     channel-arrival order;
//   - any randomness inside a work unit draws from a source derived with
//     Seed(seed, i), never from a stream shared across units.
//
// Under those rules Map(1, n, f) and Map(k, n, f) return identical bytes,
// which is what lets every offline stage run at width 0 — GOMAXPROCS — while
// the determinism tests set GOMAXPROCS to 1 and compare.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a width: n >= 1 is used as-is; any other value (0 is
// the conventional "auto") selects runtime.GOMAXPROCS(0), the number of Ps
// the process may run on.
func Workers(n int) int {
	if n >= 1 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// For runs fn(i) for every i in [0, n) across at most workers goroutines
// (resolved via Workers). fn must only write to state owned by index i.
// A panic in any work unit is re-raised on the calling goroutine after all
// workers have stopped, matching the serial failure mode.
func For(workers, n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}

	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		panicMu  sync.Mutex
		panicked any
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicMu.Lock()
					if panicked == nil {
						panicked = r
					}
					panicMu.Unlock()
					// Starve the remaining workers so the pool drains fast.
					next.Store(int64(n))
				}
			}()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
}

// Do runs the stages as the work units of one For at width 0: side by side
// up to GOMAXPROCS, one after another in argument order at width 1. Each
// stage must write only state of its own (or a synchronized cache of pure
// results) and read only what was finished before Do was called; a panic
// in any is re-raised on the caller.
func Do(stages ...func()) {
	For(0, len(stages), func(i int) { stages[i]() })
}

// Map applies fn to every index in [0, n) and returns the results in input
// order. fn must be safe for concurrent invocation on distinct indexes.
func Map[T any](workers, n int, fn func(i int) T) []T {
	out := make([]T, n)
	For(workers, n, func(i int) { out[i] = fn(i) })
	return out
}

// MapErr is Map for fallible work units. All units run to completion (an
// error in one does not cancel the others — results stay index-complete);
// the returned error is the lowest-index one, so the failure reported is
// scheduling-independent too.
func MapErr[T any](workers, n int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	errs := make([]error, n)
	For(workers, n, func(i int) { out[i], errs[i] = fn(i) })
	for _, err := range errs {
		if err != nil {
			return out, err
		}
	}
	return out, nil
}

// Seed derives the random seed for work unit index from a base seed, with
// a splitmix64 finalizer so neighbouring indexes get statistically
// independent streams. Sharded generators must use one derived seed per
// index instead of sharing a sequential stream — that is what makes the
// shard outputs independent of execution order.
func Seed(seed int64, index int) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*(uint64(index)+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}
