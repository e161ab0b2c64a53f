package contextrank

// Speedup benchmarks for the deterministic parallel pipeline: each runs the
// same work at a sweep of GOMAXPROCS values (serial, 4, 8) — the width every
// offline stage fans out to — and reports the wall-clock per width plus the
// speedup over serial. TestParallelEqualsSerial proves the outputs are
// bit-identical; these measure what the fan-out buys.
//
// GOMAXPROCS also bounds the runtime: at 1 the GC's mark work — the
// background workers and the assists charged to the allocating goroutine —
// shares the one P with the work, while at 4 or 8 most of it moves to the
// other Ps. Timed as-is, the serial run would hand every wider run that
// offload as speedup: up to 1/(1 - GC share), about 1.2-1.3x for the
// build, which a fan-out serialized back to one goroutine still collects
// and which alone clears the parEff-8 floor on 4 cores. So the serial
// reference is the GOMAXPROCS-1 wall-clock less the GC mark CPU spent
// inside it, and a serialized fan-out reads speedup-8 <= ~1.
//
// Reported metrics per benchmark:
//
//	ms-1, ms-4, ms-8    wall-clock milliseconds at GOMAXPROCS=1/4/8
//	gc-ms-1             GC mark CPU milliseconds inside ms-1
//	speedup-4/speedup-8 (ms-1 - gc-ms-1) / ms-N
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
	"runtime/metrics"
	"testing"
	"time"

	"contextrank/internal/core"
	"contextrank/internal/experiments"
	"contextrank/internal/ranksvm"
)

// benchWorkerCounts is the GOMAXPROCS sweep grid: serial reference, mid
// fan-out, and the guarded width.
var benchWorkerCounts = [3]int{1, 4, 8}

// gcMarkMetrics are the runtime's GC mark CPU classes: assists, dedicated
// workers (fractional ones fold in) and idle-time workers. Pauses are left
// out, since they stop the work at any width. The runtime advances the
// classes at the end of each GC cycle.
var gcMarkMetrics = []metrics.Sample{
	{Name: "/cpu/classes/gc/mark/assist:cpu-seconds"},
	{Name: "/cpu/classes/gc/mark/dedicated:cpu-seconds"},
	{Name: "/cpu/classes/gc/mark/idle:cpu-seconds"},
}

// gcMarkSeconds reads the cumulative GC mark CPU.
func gcMarkSeconds() float64 {
	metrics.Read(gcMarkMetrics)
	var s float64
	for _, m := range gcMarkMetrics {
		s += m.Value.Float64()
	}
	return s
}

// sweep times run once per width in benchWorkerCounts and publishes the
// per-width and derived metrics. Each run starts from a fresh GC cycle, so
// the serial run's mark CPU counts only cycles that ran inside it; a cycle
// still open when it ends stays in the reference.
func sweep(b *testing.B, run func()) {
	b.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var ms [3]float64
	var gcMs float64
	for i, w := range benchWorkerCounts {
		runtime.GOMAXPROCS(w)
		runtime.GC()
		gc0 := gcMarkSeconds()
		t0 := time.Now()
		run()
		ms[i] = time.Since(t0).Seconds() * 1000
		if w == 1 {
			gcMs = (gcMarkSeconds() - gc0) * 1000
		}
		b.ReportMetric(ms[i], fmt.Sprintf("ms-%d", w))
	}
	b.ReportMetric(gcMs, "gc-ms-1")
	serial := ms[0] - gcMs
	for i := 1; i < len(ms); i++ {
		b.ReportMetric(serial/ms[i], fmt.Sprintf("speedup-%d", benchWorkerCounts[i]))
	}
	cores := runtime.NumCPU()
	b.ReportMetric(float64(cores), "cores")
	b.ReportMetric((serial/ms[2])/math.Min(8, float64(cores)), "parEff-8")
}

// BenchmarkParallelBuild measures the full system build (the stage graph's
// branches side by side, corpus sharding, bulk parallel indexing, parallel
// freeze, click simulation) across the GOMAXPROCS sweep. Its allocs/op and
// B/op are the three builds of one sweep; make bench guards both.
func BenchmarkParallelBuild(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sweep(b, func() { Build(SmallConfig(42)) })
	}
}

// BenchmarkParallelCrossValidate measures 5-fold CV of the ranking SVM with
// the folds fanned out across the GOMAXPROCS sweep.
func BenchmarkParallelCrossValidate(b *testing.B) {
	s := benchSystem(b)
	groups := s.Dataset(nil)
	for i := 0; i < b.N; i++ {
		sweep(b, func() {
			m := &core.LearnedMethod{Options: ranksvm.Options{Seed: 42}}
			if _, err := experiments.CrossValidate(groups, m, 5, 42); err != nil {
				b.Fatal(err)
			}
		})
	}
}
