package main

// Click-graph engine benchmarks at ORCAS scale (README.md in this
// directory). The scale bench is the executable form of the offline
// contract: synthesizing, deduplicating, freezing, and running ten
// evidence-weighted propagation sweeps over a ≥2M-edge click graph must
// finish inside two seconds of wall-clock at 8 workers, with the frozen
// adjacency at most 35% of the raw 12-byte edge list. The example sits
// outside the product, so `make bench` runs these once (bit-rot check) but
// guards none of their metrics.

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"
	"time"

	"contextrank/examples/clickgraph/clickgraph"
)

// benchWorkerCounts is the sweep grid: serial reference, mid fan-out, and
// the contract width.
var benchWorkerCounts = [3]int{1, 4, 8}

// reportSweep publishes the per-count and derived metrics for one sweep of
// wall-clock measurements aligned with benchWorkerCounts (the same metric
// names the root package's parallel benchmarks report).
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

// clickBenchConfig is the ≥2M-edge ORCAS-shaped graph: ~2.02M deduplicated
// edges across 345k stories and 4k concepts.
var clickBenchConfig = clickgraph.SynthConfig{Seed: 42, Stories: 345_000, Concepts: 4_000}

var (
	clickBenchOnce  sync.Once
	clickBenchGraph *clickgraph.Graph
)

// clickBenchFrozen builds the shared frozen graph once per process.
func clickBenchFrozen() *clickgraph.Graph {
	clickBenchOnce.Do(func() {
		clickBenchGraph = clickgraph.Synthesize(clickBenchConfig, 8)
		clickBenchGraph.FreezeWorkers(8)
	})
	return clickBenchGraph
}

// BenchmarkClickGraphScale measures the full offline pass at 8 workers:
// click-log synthesis, CSR dedup + freeze, ten propagation sweeps.
func BenchmarkClickGraphScale(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		g := clickgraph.Synthesize(clickBenchConfig, 8)
		buildMS := time.Since(t0).Seconds() * 1000

		t1 := time.Now()
		g.FreezeWorkers(8)
		freezeMS := time.Since(t1).Seconds() * 1000

		p := clickgraph.NewPropagator(g)
		p.SeedUniform()
		t2 := time.Now()
		p.SweepN(10, 8)
		sweepMS := time.Since(t2).Seconds() * 1000

		st := g.Stats()
		if st.Edges < 2_000_000 {
			b.Fatalf("graph too small for the scale contract: %d edges", st.Edges)
		}
		b.ReportMetric(float64(st.Edges), "edges")
		b.ReportMetric(buildMS, "build-ms")
		b.ReportMetric(freezeMS, "freeze-ms")
		b.ReportMetric(sweepMS, "sweep10-ms")
		b.ReportMetric(buildMS+freezeMS+sweepMS, "total-ms")
		b.ReportMetric(float64(st.FrozenBytes), "frozen-bytes")
		b.ReportMetric(float64(st.FrozenBytes)/float64(st.RawBytes), "frozen-ratio")
	}
}

// BenchmarkClickGraphPropagate sweeps ten propagation rounds over the
// frozen 2M-edge graph at Workers ∈ {1, 4, 8} and reports the standard
// speedup metrics.
func BenchmarkClickGraphPropagate(b *testing.B) {
	g := clickBenchFrozen()
	p := clickgraph.NewPropagator(g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var elapsed [3]time.Duration
		for wi, w := range benchWorkerCounts {
			p.Reset()
			p.SeedUniform()
			t0 := time.Now()
			p.SweepN(10, w)
			elapsed[wi] = time.Since(t0)
		}
		reportSweep(b, elapsed)
	}
}
