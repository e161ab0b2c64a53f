package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRunSmall drives the tool end to end at a tiny scale: build, freeze,
// sweep and both query kinds must succeed and report sane stats.
func TestRunSmall(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{
		"-stories", "2000", "-concepts", "150", "-sweeps", "4",
		"-related", "c0", "-rewrite", "c0", "-k", "5",
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{
		"graph    150 concepts x 2000 stories",
		"frozen   ",
		"sweeps   4 in ",
		`related("c0"):`,
		`rewrite("c0"):`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

// TestRunUnknownConcept: querying a concept outside the synthesized name
// space fails with a non-zero exit and a hint on stderr.
func TestRunUnknownConcept(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{
		"-stories", "500", "-concepts", "50", "-sweeps", "0",
		"-related", "no-such-concept",
	}, &stdout, &stderr)
	if code == 0 {
		t.Fatal("unknown concept should exit non-zero")
	}
	if !strings.Contains(stderr.String(), "not in graph") {
		t.Fatalf("stderr missing hint: %s", stderr.String())
	}
}

// TestRunBadFlag: flag errors exit 2 without panicking.
func TestRunBadFlag(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-no-such-flag"}, &stdout, &stderr); code != 2 {
		t.Fatalf("bad flag exit = %d, want 2", code)
	}
}
