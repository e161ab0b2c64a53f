package main

import (
	"bytes"
	"os"
	"runtime"
	"strings"
	"testing"

	"contextrank"
)

// TestSmallScaleGolden pins the whole harness at small scale: every line
// `experiments -scale small -seed 42` prints, less the one wall-clock line,
// byte-for-byte against the checked-in golden — at GOMAXPROCS 1 and at all
// cores, so it is also the N workers ≡ 1 pin for every table at once. A refactor
// must not move it; a deliberate change to a table regenerates the file:
//
//	go run ./cmd/experiments -scale small -seed 42 | grep -v '^  throughput:' > cmd/experiments/testdata/small_seed42.golden
func TestSmallScaleGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment twice; skipped in -short")
	}
	golden, err := os.ReadFile("testdata/small_seed42.golden")
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(string(golden), "\n")
	for _, procs := range []int{1, runtime.NumCPU()} {
		prev := runtime.GOMAXPROCS(procs)
		t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
		var out bytes.Buffer
		if err := run(&out, contextrank.SmallConfig(42), "small", "all"); err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, line := range strings.Split(out.String(), "\n") {
			if !strings.HasPrefix(line, "  throughput:") {
				got = append(got, line)
			}
		}
		if len(got) != len(want) {
			t.Errorf("GOMAXPROCS=%d: %d lines, golden has %d", procs, len(got), len(want))
		}
		for i := 0; i < len(got) && i < len(want); i++ {
			if got[i] != want[i] {
				t.Errorf("GOMAXPROCS=%d line %d:\n got %q\nwant %q", procs, i+1, got[i], want[i])
			}
		}
	}
}
