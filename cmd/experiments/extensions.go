package main

import (
	"fmt"
	"io"

	"contextrank/internal/core"
	"contextrank/internal/experiments"
)

// runFeatureSelection reproduces the §IV-A negative result: the candidate
// features the paper evaluated and eliminated do not improve the model.
func runFeatureSelection(w io.Writer, s *core.System, seed int64) error {
	fmt.Fprintln(w, "== §IV-A feature selection (paper: eliminated candidates 'prove not to improve upon' the selected features)")
	selected, withEliminated, err := experiments.FeatureSelection(s, 5, seed)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "  %v\n  %v\n", selected, withEliminated)
	delta := 100 * (selected.WeightedErrorRate - withEliminated.WeightedErrorRate)
	fmt.Fprintf(w, "  adding the eliminated candidates changes the error by %+.2f points\n\n", -delta)
	return nil
}
