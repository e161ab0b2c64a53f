package experiments

import "testing"

// The paper's feature-selection negative result: the eliminated candidates
// must not improve the model materially (we allow a small tolerance in
// either direction — the paper dropped them because they did not help).
func TestFeatureSelectionEliminatedCandidates(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	s := testSystem(t)
	selected, withEliminated, err := FeatureSelection(s, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("selected:        %v", selected)
	t.Logf("with eliminated: %v", withEliminated)
	improvement := selected.WeightedErrorRate - withEliminated.WeightedErrorRate
	if improvement > 0.03 {
		t.Errorf("eliminated features improved error by %.3f — the paper's selection would have kept them", improvement)
	}
}
