package contextrank

// The determinism contract of the parallel pipeline (internal/par): every
// stage that fans out across GOMAXPROCS workers, and every stage of the
// set-up's stage graph that runs beside another, must produce bit-identical
// results at every width. This test builds the same small world at
// GOMAXPROCS 1 and 8 and compares build statistics, mined-store output, the
// snippet-relevance dataset, a full cross-validated experiment with
// reflect.DeepEqual and the trained bundle's bytes — any scheduling
// dependence (map iteration, channel-arrival ordering, FP reassociation)
// shows up as a diff.

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"

	"contextrank/internal/core"
	"contextrank/internal/experiments"
	"contextrank/internal/relevance"
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
		dataset     []core.Group
		bundle      []byte
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
		ranker, err := sys.TrainRanker()
		if err != nil {
			t.Fatalf("TrainRanker (GOMAXPROCS=%d): %v", procs, err)
		}
		var bundle bytes.Buffer
		if err := ranker.SaveBundle(&bundle); err != nil {
			t.Fatalf("SaveBundle (GOMAXPROCS=%d): %v", procs, err)
		}
		o.bundle = bundle.Bytes()
		o.dataset = s.Dataset([]relevance.Resource{relevance.Snippets})
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

	// The window join fanned out by window, and the trained artifact: the
	// interest table, the packs and the model fitted beside them, as the
	// bundle serializes them.
	if !reflect.DeepEqual(parallel.dataset, serial.dataset) {
		t.Errorf("Dataset([Snippets]) differs between GOMAXPROCS=8 and GOMAXPROCS=1")
	}
	if !bytes.Equal(parallel.bundle, serial.bundle) {
		t.Errorf("trained bundle differs: GOMAXPROCS=8 %d bytes, GOMAXPROCS=1 %d bytes", len(parallel.bundle), len(serial.bundle))
	}
}
