// Command bench is the repository's request-level benchmark (ISSUE 13).
// It builds the system, starts the serving tier in this process on
// loopback listeners, drives one named workload from closed-loop clients,
// checks every response, and prints the metrics BENCHMARK.json declares.
//
//	go run -C bench contextrank/bench --workload serve-miss --seed 1 --seconds 15 --trace 0
//	go run -C bench contextrank/bench -compare a.out b.out
//
// README.md describes the workloads, the metrics and how they were sized.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"
)

// watchdogLimit is the hard wall-clock bound of one run: the driver allows
// 180 s, and a run that has not finished by then never will.
const watchdogLimit = 170 * time.Second

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: serve-miss, serve-hot, cluster-zipf or render-ingest")
	seed := fs.Int64("seed", 1, "seeds the world, the request and ingest feeds and the clients' samplers")
	secs := fs.Float64("seconds", 15, "how long the timed phase measures")
	trace := fs.Int("trace", 0, "1 = traced run reporting the per-layer metrics, 0 = end-to-end metrics")
	compare := fs.Bool("compare", false, "compare two result files: bench -compare a.out b.out")
	spec := fs.String("benchmark", "../BENCHMARK.json", "with -compare: the file that holds the bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: bench -compare a.out b.out")
			return 2
		}
		return compareFiles(*spec, fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	wl, ok := findWorkload(*name)
	if !ok || *secs <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "bench: need --workload (one of %v), --seconds > 0, --trace 0|1\n", workloadNames())
		return 2
	}

	// A single process owns every listener and goroutine, so ending it is
	// all the watchdog has to do for nothing to survive a stuck run.
	wd := time.AfterFunc(watchdogLimit, func() {
		fmt.Fprintf(stderr, "bench: watchdog: run exceeded %s\n", watchdogLimit)
		os.Exit(3)
	})
	defer wd.Stop()

	res, err := run(runConfig{
		workload: wl, seed: *seed, seconds: *secs, trace: *trace == 1,
		sz: benchSizing, outDir: "out", logw: stderr,
	})
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if res.info.FirstFailure != "" {
		fmt.Fprintln(stderr, "bench: first failure:", res.info.FirstFailure)
	}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(res.info); err != nil {
		return 1
	}
	if err := enc.Encode(res); err != nil {
		return 1
	}
	return 0
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}
