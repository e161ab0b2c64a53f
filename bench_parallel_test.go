package contextrank

// Speedup benchmarks for the deterministic parallel pipeline: each runs the
// same work at a sweep of worker counts (serial, 4, 8) and reports the
// wall-clock per count plus the speedup over serial. TestParallelEqualsSerial
// proves the outputs are bit-identical; these measure what the fan-out buys.
//
// Reported metrics per benchmark:
//
//	ms-1, ms-4, ms-8    wall-clock milliseconds at Workers=1/4/8
//	speedup-4/speedup-8 ms-1 / ms-N
//	cores               runtime.NumCPU
//	parEff-8            speedup-8 / min(8, cores): parallel efficiency of
//	                    the 8-worker run, machine-independent. Perfect
//	                    scaling is 1.0 on any core count — on a single-core
//	                    machine speedup-8 is necessarily ~1.0 and so is the
//	                    efficiency. make bench floors this at 0.35 (≥2.8×
//	                    at 8 workers on ≥8 cores), the CI teeth of the
//	                    near-linear-build contract (DESIGN.md §10).

import (
	"fmt"
	"math"
	"runtime"
	"testing"
	"time"

	"contextrank/internal/core"
	"contextrank/internal/experiments"
	"contextrank/internal/ranksvm"
)

// benchWorkerCounts is the sweep grid: serial reference, mid fan-out, and
// the guarded width.
var benchWorkerCounts = [3]int{1, 4, 8}

// reportSweep publishes the per-count and derived metrics for one sweep of
// wall-clock measurements aligned with benchWorkerCounts.
func reportSweep(b *testing.B, elapsed [3]time.Duration) {
	b.Helper()
	var ms [3]float64
	for i, d := range elapsed {
		ms[i] = d.Seconds() * 1000
		b.ReportMetric(ms[i], fmt.Sprintf("ms-%d", benchWorkerCounts[i]))
	}
	for i := 1; i < len(ms); i++ {
		b.ReportMetric(ms[0]/ms[i], fmt.Sprintf("speedup-%d", benchWorkerCounts[i]))
	}
	cores := runtime.NumCPU()
	b.ReportMetric(float64(cores), "cores")
	b.ReportMetric((ms[0]/ms[2])/math.Min(8, float64(cores)), "parEff-8")
}

// BenchmarkParallelBuild measures the full system build (corpus sharding,
// bulk parallel indexing, parallel freeze, click simulation) across the
// worker sweep.
func BenchmarkParallelBuild(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var elapsed [3]time.Duration
		for wi, w := range benchWorkerCounts {
			cfg := SmallConfig(42)
			cfg.Workers = w
			t0 := time.Now()
			Build(cfg)
			elapsed[wi] = time.Since(t0)
		}
		reportSweep(b, elapsed)
	}
}

// BenchmarkParallelCrossValidate measures 5-fold CV of the ranking SVM with
// the folds fanned out across the worker sweep.
func BenchmarkParallelCrossValidate(b *testing.B) {
	s := benchSystem(b)
	groups := s.Dataset(nil)
	for i := 0; i < b.N; i++ {
		var elapsed [3]time.Duration
		for wi, w := range benchWorkerCounts {
			m := &core.LearnedMethod{Options: ranksvm.Options{Seed: 42}}
			t0 := time.Now()
			if _, err := experiments.CrossValidate(groups, m, 5, 42, w); err != nil {
				b.Fatal(err)
			}
			elapsed[wi] = time.Since(t0)
		}
		reportSweep(b, elapsed)
	}
}
