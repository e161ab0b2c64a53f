package contextrank

// The determinism contract of the parallel pipeline (internal/par): every
// stage that fans out across GOMAXPROCS workers must produce bit-identical
// results at every width. This test builds the same small world at
// GOMAXPROCS 1 and 8 and compares build statistics, mined-store output and a
// full cross-validated experiment with reflect.DeepEqual — any scheduling
// dependence (map iteration, channel-arrival ordering, FP reassociation)
// shows up as a diff.

import (
	"reflect"
	"runtime"
	"testing"

	"contextrank/internal/core"
	"contextrank/internal/experiments"
)

// setGOMAXPROCS sets the width every offline stage fans out to for the rest
// of the test and restores the previous value at cleanup. No test in the
// module runs in parallel, so the setting reaches no other test.
func setGOMAXPROCS(t testing.TB, n int) {
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

func TestParallelEqualsSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("builds two systems; skipped in -short")
	}

	// outputs is everything compared, each computed at one GOMAXPROCS: the
	// relevance stores behind Table II and the folds of Table III are built
	// lazily, so they run at the width set here too.
	type outputs struct {
		stats       core.DataStats
		docs        int
		top, bottom []experiments.Table2Row
		t3          experiments.Table3Rows
	}
	run := func(procs int) outputs {
		setGOMAXPROCS(t, procs)
		sys := Build(SmallConfig(42))
		s := sys.Internal()
		o := outputs{stats: sys.DataStats(), docs: s.Engine.NumDocs()}
		o.top, o.bottom = experiments.Table2(s, 3)
		var err error
		if o.t3, err = experiments.Table3(s, 5, 42); err != nil {
			t.Fatalf("Table3 (GOMAXPROCS=%d): %v", procs, err)
		}
		return o
	}
	serial := run(1)
	parallel := run(8)

	// Build outputs: click corpus statistics and the search corpus.
	if got, want := parallel.stats, serial.stats; got != want {
		t.Errorf("DataStats differ: GOMAXPROCS=8 %+v, GOMAXPROCS=1 %+v", got, want)
	}
	if got, want := parallel.docs, serial.docs; got != want {
		t.Errorf("corpus size differs: GOMAXPROCS=8 %d docs, GOMAXPROCS=1 %d docs", got, want)
	}

	// Mined relevance stores (parallel BuildStore) via Table II.
	if !reflect.DeepEqual(parallel.top, serial.top) || !reflect.DeepEqual(parallel.bottom, serial.bottom) {
		t.Errorf("Table2 differs:\nGOMAXPROCS=8 top=%v bottom=%v\nGOMAXPROCS=1 top=%v bottom=%v",
			parallel.top, parallel.bottom, serial.top, serial.bottom)
	}

	// A full experiment: feature extraction, k-fold CV with fold fan-out,
	// SVM training, error rates and NDCG — every float must match.
	if !reflect.DeepEqual(parallel.t3, serial.t3) {
		t.Errorf("Table3 differs:\nGOMAXPROCS=8 %+v\nGOMAXPROCS=1 %+v", parallel.t3, serial.t3)
	}
}
