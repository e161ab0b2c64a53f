// Package kwlint bundles the project's go/analysis suite: the analyzers
// that mechanically enforce the reproduction's determinism, hygiene, and
// annotation-driven contracts (DESIGN.md §9). See cmd/kwlint for the
// driver.
package kwlint

import (
	"golang.org/x/tools/go/analysis"

	"contextrank/internal/analysis/ctxflow"
	"contextrank/internal/analysis/determinism"
	"contextrank/internal/analysis/errsink"
	"contextrank/internal/analysis/floatcompare"
	"contextrank/internal/analysis/hotpath"
	"contextrank/internal/analysis/lockguard"
	"contextrank/internal/analysis/orderedfanout"
	"contextrank/internal/analysis/poolalias"
	"contextrank/internal/analysis/seededrand"
)

// Analyzers returns the full kwlint suite in a stable order. The order
// (and the names) must match kwutil.AnalyzerNames, the copy the ignore
// validator reads (kwutil cannot import the analyzers that import it);
// kwlint_test.go asserts the two stay aligned.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		determinism.Analyzer,
		orderedfanout.Analyzer,
		seededrand.Analyzer,
		floatcompare.Analyzer,
		errsink.Analyzer,
		hotpath.Analyzer,
		poolalias.Analyzer,
		lockguard.Analyzer,
		ctxflow.Analyzer,
	}
}
