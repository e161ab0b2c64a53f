package lockguard_test

import (
	"testing"

	"contextrank/internal/analysis/atest"
	"contextrank/internal/analysis/lockguard"
)

func TestLockguard(t *testing.T) {
	// lockguardfix exercises locked/unlocked access, constructor escape,
	// //kw:holds, wrong-root and bare-mutex detection, and malformed
	// guards; lockfact/use proves the guard fact crosses package
	// boundaries.
	atest.Run(t, "../testdata", lockguard.Analyzer,
		"lockguardfix",
		"lockfact/use",
	)
}

func TestFrozen(t *testing.T) {
	// frozenfix covers builder/freeze/constructor mutation contexts and
	// the malformed/misplaced annotations; frozenfact/use proves the
	// annotation binds importing packages through the exported fact.
	atest.Run(t, "../testdata", lockguard.Analyzer,
		"frozenfix",
		"frozenfact/use",
	)
}
