package main

import (
	"encoding/json"
	"go/parser"
	"go/token"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"hash/maphash"
)

// declared reads the metric names BENCHMARK.json declares.
func declared(t *testing.T) (endToEnd, perLayer []string) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the command has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json says %q, the command %q", i, w.Name, workloads[i].name)
		}
	}
	for _, m := range spec.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range spec.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	return endToEnd, perLayer
}

// TestRunsExitClean runs every workload, untraced and traced, at test
// sizing and checks the clean-exit property: after run returns no listener
// accepts and the goroutine count is back where it started. It also checks
// that each mode reports exactly the metrics BENCHMARK.json declares for
// it, that nothing failed verification, and that the output digest is the
// same for the same seed in both modes (so the staged set-up of a traced
// run builds the same runtime as TrainRanker).
func TestRunsExitClean(t *testing.T) {
	endToEnd, perLayer := declared(t)
	base := runtime.NumGoroutine()
	out := t.TempDir()
	for _, wl := range workloads {
		digests := map[string]bool{}
		for _, trace := range []bool{false, true} {
			var urls []string
			res, err := run(runConfig{
				workload: wl, seed: 7, seconds: 0.4, trace: trace,
				sz: testSizing, outDir: out, logw: io.Discard,
				started: func(tp *topology) {
					for _, n := range tp.nodes() {
						urls = append(urls, n.url)
					}
				},
			})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wl.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d: %s",
					wl.name, trace, res.Correct, res.Attempted, res.Failed, res.info.FirstFailure)
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics reported, %d declared", wl.name, trace, len(res.Metrics), len(want))
			}
			for _, name := range want {
				if _, ok := res.Metrics[name]; !ok {
					t.Errorf("%s trace=%v: declared metric %s not reported", wl.name, trace, name)
				}
			}
			digests[res.info.OutputDigest] = true

			if len(urls) != 2+routerShards {
				t.Errorf("%s: %d listeners reported, want %d", wl.name, len(urls), 2+routerShards)
			}
			for _, u := range urls {
				conn, err := net.DialTimeout("tcp", strings.TrimPrefix(u, "http://"), time.Second)
				if err == nil {
					conn.Close()
					t.Errorf("%s trace=%v: %s still accepts after run returned", wl.name, trace, u)
				}
			}
			if trace {
				if _, err := os.Stat(filepath.Join(out, "trace-"+wl.name+".json")); err != nil {
					t.Errorf("%s: traced run wrote no trace file: %v", wl.name, err)
				}
			}
		}
		if len(digests) != 1 {
			t.Errorf("%s: output digest differs between the untraced and the traced run", wl.name)
		}
	}
	// Connection goroutines of the closed client transport unwind
	// asynchronously; give them a moment.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		buf := make([]byte, 1<<16)
		t.Errorf("%d goroutines before the runs, %d after:\n%s", base, n, buf[:runtime.Stack(buf, true)])
	}
}

// TestSingleProcess pins the property the benchmark is built on: nothing
// in this directory can start another process.
func TestSingleProcess(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		parsed, err := parser.ParseFile(token.NewFileSet(), f, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range parsed.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == "os/exec" || p == "syscall" {
				t.Errorf("%s imports %s", f, p)
			}
		}
	}
}

// TestClientCountsBadResponses drives a client against servers that
// answer wrongly and checks each kind is counted as a failure.
func TestClientCountsBadResponses(t *testing.T) {
	docs := []doc{{body: []byte(`{"text":"some text","top":3}`)}}
	docs[0].story.Text = "some text"
	cases := map[string]http.HandlerFunc{
		"non-200": func(w http.ResponseWriter, _ *http.Request) { http.Error(w, "overloaded", http.StatusTooManyRequests) },
		"degraded": func(w http.ResponseWriter, _ *http.Request) {
			_, _ = io.WriteString(w, `{"text":"some text","annotations":[],"degraded":true}`+"\n")
		},
		"unparseable": func(w http.ResponseWriter, _ *http.Request) { _, _ = io.WriteString(w, "{") },
		"wrong text": func(w http.ResponseWriter, _ *http.Request) {
			_, _ = io.WriteString(w, `{"text":"other","annotations":[]}`+"\n")
		},
	}
	for name, h := range cases {
		srv := httptest.NewServer(h)
		c := newClient(0, srv.Client(), srv.URL, false, docs, maphash.MakeSeed(), 1)
		c.do(0, true)
		srv.Close()
		if c.attempted != 1 || c.failed != 1 || c.firstFail == "" {
			t.Errorf("%s: attempted=%d failed=%d (%q), want one failure", name, c.attempted, c.failed, c.firstFail)
		}
	}

	// A repeat that differs from the first response is a failure too.
	n := 0
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		n++
		_, _ = io.WriteString(w, `{"text":"some text","annotations":[{"text":"`+strconv.Itoa(n)+`"}]}`+"\n")
	}))
	defer srv.Close()
	c := newClient(0, srv.Client(), srv.URL, false, docs, maphash.MakeSeed(), 0)
	c.do(0, false)
	c.do(0, false)
	if c.failed != 1 {
		t.Errorf("differing repeat: failed=%d, want 1", c.failed)
	}
}
