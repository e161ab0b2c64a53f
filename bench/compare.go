package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// benchmarkSpec is the part of BENCHMARK.json the comparison needs.
type benchmarkSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runSet is the runs of one result file: per workload, per metric, the
// values of every run, and the output digest per (workload, seed).
type runSet struct {
	values  map[string]map[string][]float64
	digests map[string]string
}

// readRuns parses a file holding the standard output of any number of
// runs: each run is an info line followed by a result line.
func readRuns(path string) (*runSet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	rs := &runSet{values: map[string]map[string][]float64{}, digests: map[string]string{}}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	var info *runInfo
	for sc.Scan() {
		var line struct {
			runInfo
			Metrics map[string]metric `json:"metrics"`
		}
		if json.Unmarshal(sc.Bytes(), &line) != nil {
			continue // not a line this command printed
		}
		switch {
		case line.Workload != "":
			info = &line.runInfo
		case line.Metrics != nil && info != nil:
			if info.Trace == 0 {
				byMetric := rs.values[info.Workload]
				if byMetric == nil {
					byMetric = map[string][]float64{}
					rs.values[info.Workload] = byMetric
				}
				for name, m := range line.Metrics {
					byMetric[name] = append(byMetric[name], m.Value)
				}
			}
			rs.digests[fmt.Sprintf("%s seed %d", info.Workload, info.Seed)] = info.OutputDigest
			info = nil
		}
	}
	return rs, sc.Err()
}

// compareFiles reports, per workload and end-to-end metric, how much worse
// b's median is than a's against the metric's bound, and whether the
// output digests of runs with the same workload and seed agree. It
// returns 0 when everything is within bounds.
func compareFiles(specPath, aPath, bPath string, stdout, stderr io.Writer) int {
	raw, err := os.ReadFile(specPath)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", specPath, err)
		return 2
	}
	a, err := readRuns(aPath)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	b, err := readRuns(bPath)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}

	bad := 0
	fmt.Fprintf(stdout, "%-14s %-20s %14s %14s %9s %7s\n", "workload", "metric", "a (median)", "b (median)", "worse by", "bound")
	for _, wl := range workloads {
		for _, m := range spec.EndToEnd {
			av, bv := a.values[wl.name][m.Name], b.values[wl.name][m.Name]
			if len(av) == 0 || len(bv) == 0 {
				continue
			}
			worse := worseBy(median(av), median(bv), m.Better)
			verdict := "ok"
			if worse > m.Bound {
				verdict = "REGRESSION"
				bad++
			}
			fmt.Fprintf(stdout, "%-14s %-20s %14.6g %14.6g %+8.2f%% %6.1f%% %s (n=%d,%d)\n",
				wl.name, m.Name, median(av), median(bv), 100*worse, 100*m.Bound, verdict, len(av), len(bv))
		}
	}
	keys := make([]string, 0, len(a.digests))
	for k := range a.digests {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if bd, ok := b.digests[k]; ok && bd != a.digests[k] {
			fmt.Fprintf(stdout, "%s: output_digest differs: %s vs %s\n", k, a.digests[k], bd)
			bad++
		}
	}
	if bad > 0 {
		return 1
	}
	return 0
}

// worseBy is how much worse b is than a, as a share of a: positive when b
// regressed in the metric's direction.
func worseBy(a, b float64, better string) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}
