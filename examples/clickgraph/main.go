// Command clickgraph builds, freezes and queries a click graph at
// configurable scale: it synthesizes an ORCAS-scale click log (or any
// smaller one), freezes the compressed CSR adjacency, runs a propagation
// sweep schedule, and answers Related/Rewrite queries — printing the
// timings and compression stats the 2-second/35% contracts are written
// against.
//
// Usage:
//
//	clickgraph                                   # default 250k stories, 4k concepts
//	clickgraph -stories 345000 -sweeps 10        # the benchmark shape
//	clickgraph -related c17 -rewrite c17 -k 10   # query after the sweeps
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"contextrank/examples/clickgraph/clickgraph"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("clickgraph", flag.ContinueOnError)
	fs.SetOutput(stderr)
	stories := fs.Int("stories", 250_000, "number of story nodes to synthesize")
	concepts := fs.Int("concepts", 4_000, "number of concept nodes to synthesize")
	seed := fs.Int64("seed", 42, "synthesis seed")
	workers := fs.Int("workers", 8, "worker count for build, freeze and sweeps")
	sweeps := fs.Int("sweeps", 10, "propagation sweeps to run after freezing")
	related := fs.String("related", "", "concept name to expand with Related")
	rewrite := fs.String("rewrite", "", "concept name to expand with Rewrite")
	k := fs.Int("k", 10, "result count for -related/-rewrite")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	cfg := clickgraph.SynthConfig{Seed: *seed, Stories: *stories, Concepts: *concepts}

	t0 := time.Now()
	g := clickgraph.Synthesize(cfg, *workers)
	build := time.Since(t0)

	t1 := time.Now()
	g.FreezeWorkers(*workers)
	freeze := time.Since(t1)

	st := g.Stats()
	fmt.Fprintf(stdout, "graph    %d concepts x %d stories, %d edges, %d clicks\n",
		st.Concepts, st.Stories, st.Edges, st.TotalClicks)
	fmt.Fprintf(stdout, "frozen   %d bytes (raw %d, ratio %.4f), %d bitmap rows, %d skip entries\n",
		st.FrozenBytes, st.RawBytes, float64(st.FrozenBytes)/float64(st.RawBytes), st.BitmapRows, st.SkipEntries)
	fmt.Fprintf(stdout, "build    %v\n", build.Round(time.Millisecond))
	fmt.Fprintf(stdout, "freeze   %v\n", freeze.Round(time.Millisecond))

	if *sweeps > 0 {
		p := clickgraph.NewPropagator(g)
		p.SeedUniform()
		t2 := time.Now()
		p.SweepN(*sweeps, *workers)
		sweep := time.Since(t2)
		fmt.Fprintf(stdout, "sweeps   %d in %v (%v/sweep, %d workers)\n",
			*sweeps, sweep.Round(time.Millisecond),
			(sweep / time.Duration(*sweeps)).Round(time.Millisecond), *workers)
	}
	fmt.Fprintf(stdout, "total    %v\n", time.Since(t0).Round(time.Millisecond))

	exit := 0
	if *related != "" {
		exit |= printQuery(stdout, stderr, "related", *related, g.Related(*related, *k))
	}
	if *rewrite != "" {
		exit |= printQuery(stdout, stderr, "rewrite", *rewrite, g.Rewrite(*rewrite, *k))
	}
	return exit
}

func printQuery(stdout, stderr io.Writer, kind, concept string, results []clickgraph.Scored) int {
	if results == nil {
		fmt.Fprintf(stderr, "%s: concept %q not in graph (names are c0..cN)\n", kind, concept)
		return 1
	}
	fmt.Fprintf(stdout, "%s(%q):\n", kind, concept)
	for i, r := range results {
		fmt.Fprintf(stdout, "  %2d. %-12s %.6f\n", i+1, r.Name, r.Score)
	}
	return 0
}
