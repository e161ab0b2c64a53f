package benchonly_test

import (
	"testing"

	"contextrank/internal/analysis/atest"
	"contextrank/internal/analysis/benchonly"
)

func TestBenchOnly(t *testing.T) {
	// benchfix/lib declares an adapter in its benchapi.go and misuses it
	// in lib.go; its test file may call it. benchfix/use proves the rule
	// holds across a package boundary.
	atest.Run(t, "../testdata", benchonly.Analyzer,
		"benchfix/lib",
		"benchfix/use",
	)
}
