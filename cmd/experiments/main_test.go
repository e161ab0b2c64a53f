package main

import (
	"bytes"
	"errors"
	"os"
	"runtime"
	"strings"
	"testing"

	"contextrank"
)

// TestSmallScaleGolden pins the whole harness at small scale: every line
// `experiments -scale small -seed 42` prints, less the one wall-clock line,
// byte-for-byte against the checked-in golden — at GOMAXPROCS 1 and at the
// larger of the core count and 8, so it is also the N workers ≡ 1 pin for
// every table at once, and the set-up's stage graph runs wider than its
// branches even on a small machine. A refactor
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
	for _, procs := range []int{1, max(runtime.NumCPU(), 8)} {
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

// TestRunRefusesUnknownName: a -run value outside runNames — a retired
// extension or a typo — is refused before the system is built, so nothing
// is printed and main exits 2 rather than building a world to run nothing.
func TestRunRefusesUnknownName(t *testing.T) {
	for _, name := range []string{"senses", "online", "tabel3"} {
		var out bytes.Buffer
		err := run(&out, contextrank.SmallConfig(42), "small", name)
		if !errors.Is(err, errUnknownRun) {
			t.Errorf("run(%q) = %v, want errUnknownRun", name, err)
		}
		if out.Len() != 0 {
			t.Errorf("run(%q) printed %q before refusing", name, out.String())
		}
	}
}
