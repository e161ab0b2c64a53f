package contextrank

// The determinism contract of the parallel pipeline (internal/par): every
// stage that fans out across workers must produce bit-identical results for
// every worker count. This test builds the same small world serially and
// with 8 workers and compares build statistics, mined-store output and a
// full cross-validated experiment with reflect.DeepEqual — any scheduling
// dependence (map iteration, channel-arrival ordering, FP reassociation)
// shows up as a diff.

import (
	"reflect"
	"testing"

	"contextrank/internal/experiments"
)

func TestParallelEqualsSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("builds two systems; skipped in -short")
	}

	build := func(workers int) *System {
		cfg := SmallConfig(42)
		cfg.Workers = workers
		return Build(cfg)
	}
	serial := build(1)
	parallel := build(8)

	// Build outputs: click corpus statistics and the search corpus.
	if got, want := parallel.DataStats(), serial.DataStats(); got != want {
		t.Errorf("DataStats differ: workers=8 %+v, workers=1 %+v", got, want)
	}
	ss, ps := serial.Internal(), parallel.Internal()
	if got, want := ps.Engine.NumDocs(), ss.Engine.NumDocs(); got != want {
		t.Errorf("corpus size differs: workers=8 %d docs, workers=1 %d docs", got, want)
	}

	// Mined relevance stores (parallel BuildStore) via Table II.
	sTop, sBottom := experiments.Table2(ss, 3)
	pTop, pBottom := experiments.Table2(ps, 3)
	if !reflect.DeepEqual(pTop, sTop) || !reflect.DeepEqual(pBottom, sBottom) {
		t.Errorf("Table2 differs:\nworkers=8 top=%v bottom=%v\nworkers=1 top=%v bottom=%v",
			pTop, pBottom, sTop, sBottom)
	}

	// A full experiment: feature extraction, k-fold CV with fold fan-out,
	// SVM training, error rates and NDCG — every float must match.
	sT3, err := experiments.Table3(ss, 5, 42)
	if err != nil {
		t.Fatalf("Table3 (workers=1): %v", err)
	}
	pT3, err := experiments.Table3(ps, 5, 42)
	if err != nil {
		t.Fatalf("Table3 (workers=8): %v", err)
	}
	if !reflect.DeepEqual(pT3, sT3) {
		t.Errorf("Table3 differs:\nworkers=8 %+v\nworkers=1 %+v", pT3, sT3)
	}
}
