package par

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
)

func TestWorkersResolution(t *testing.T) {
	if got := Workers(3); got != 3 {
		t.Fatalf("Workers(3) = %d", got)
	}
	if got := Workers(1); got != 1 {
		t.Fatalf("Workers(1) = %d", got)
	}
	// The automatic width follows GOMAXPROCS, not the machine's core count,
	// so setting GOMAXPROCS bounds every stage that passes 0.
	for _, procs := range []int{1, 3} {
		prev := runtime.GOMAXPROCS(procs)
		t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
		if got := Workers(0); got != procs {
			t.Fatalf("Workers(0) = %d at GOMAXPROCS %d", got, procs)
		}
		if got := Workers(-5); got != procs {
			t.Fatalf("Workers(-5) = %d at GOMAXPROCS %d", got, procs)
		}
	}
}

func TestMapOrdered(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 64} {
		got := Map(workers, 100, func(i int) int { return i * i })
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d", workers, i, v)
			}
		}
	}
}

// TestMapDeterministicAcrossWorkerCounts is the substrate's core promise:
// sharded random generation gives identical bytes at any pool size.
func TestMapDeterministicAcrossWorkerCounts(t *testing.T) {
	gen := func(workers int) []string {
		return Map(workers, 50, func(i int) string {
			rng := rand.New(rand.NewSource(Seed(99, i)))
			return fmt.Sprintf("%d:%d:%d", i, rng.Intn(1000), rng.Intn(1000))
		})
	}
	serial := gen(1)
	for _, workers := range []int{2, 5, 16} {
		got := gen(workers)
		for i := range serial {
			if got[i] != serial[i] {
				t.Fatalf("workers=%d: out[%d] = %q, serial %q", workers, i, got[i], serial[i])
			}
		}
	}
}

func TestForCoversEveryIndexOnce(t *testing.T) {
	counts := make([]atomic.Int32, 1000)
	For(8, len(counts), func(i int) { counts[i].Add(1) })
	for i := range counts {
		if got := counts[i].Load(); got != 1 {
			t.Fatalf("index %d ran %d times", i, got)
		}
	}
}

func TestForEmptyAndNegative(t *testing.T) {
	ran := false
	For(4, 0, func(int) { ran = true })
	For(4, -3, func(int) { ran = true })
	if ran {
		t.Fatal("fn ran for empty range")
	}
}

func TestMapErrReturnsLowestIndexError(t *testing.T) {
	errA := errors.New("a")
	errB := errors.New("b")
	out, err := MapErr(4, 10, func(i int) (int, error) {
		switch i {
		case 3:
			return 0, errB
		case 7:
			return 0, errA
		}
		return i, nil
	})
	if err != errB {
		t.Fatalf("err = %v, want lowest-index error %v", err, errB)
	}
	if out[9] != 9 || out[0] != 0 {
		t.Fatalf("results incomplete despite error: %v", out)
	}
	if _, err := MapErr(4, 10, func(i int) (int, error) { return i, nil }); err != nil {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestForPropagatesPanic(t *testing.T) {
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("panic not propagated")
		}
	}()
	For(4, 100, func(i int) {
		if i == 42 {
			panic("boom")
		}
	})
}

// Do runs every stage once, in argument order at width 1, and re-raises a
// stage's panic on the caller at any width.
func TestDo(t *testing.T) {
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
		var order []int
		var ran [3]atomic.Int32
		stage := func(i int) func() {
			return func() {
				ran[i].Add(1)
				if procs == 1 {
					order = append(order, i)
				}
			}
		}
		Do(stage(0), stage(1), stage(2))
		for i := range ran {
			if got := ran[i].Load(); got != 1 {
				t.Fatalf("GOMAXPROCS %d: stage %d ran %d times", procs, i, got)
			}
		}
		if procs == 1 && (len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2) {
			t.Fatalf("GOMAXPROCS 1: stages ran in order %v", order)
		}
		func() {
			defer func() {
				if r := recover(); r != "boom" {
					t.Fatalf("GOMAXPROCS %d: recovered %v, want the stage's panic", procs, r)
				}
			}()
			Do(func() {}, func() { panic("boom") })
		}()
	}
}

func TestSeedSpreadsIndexes(t *testing.T) {
	seen := make(map[int64]int)
	for i := 0; i < 10000; i++ {
		s := Seed(7, i)
		if prev, dup := seen[s]; dup {
			t.Fatalf("Seed collision between indexes %d and %d", prev, i)
		}
		seen[s] = i
	}
	if Seed(1, 0) == Seed(2, 0) {
		t.Fatal("Seed ignores the base seed")
	}
	if Seed(1, 0) != Seed(1, 0) {
		t.Fatal("Seed not pure")
	}
}
