package experiments

import (
	"contextrank/internal/core"
	"contextrank/internal/ranksvm"
)

// This file drives the one experiment around the paper's discussion
// sections that is a reproduction: the feature-selection negative result
// (§IV-A). The §IV-C sense clustering and the §VIII online adaptation are
// extensions, and live in examples/senses and examples/trending/online.

// FeatureSelection reproduces the paper's feature-selection outcome: the
// candidate features it evaluated and eliminated (cosine-similar query
// frequency, any-order result count, per-term idf) "prove not to improve
// upon the features mentioned above". Returns the cross-validated results
// with and without the eliminated candidates.
func FeatureSelection(s *core.System, folds int, seed int64) (selected, withEliminated Result, err error) {
	groups := s.Dataset(nil)
	// Dataset extracts only the selected features; the eliminated candidates
	// are this experiment's alone, extracted once per distinct concept.
	var names []string
	index := make(map[string]int)
	for gi := range groups {
		for _, ex := range groups[gi].Examples {
			if _, ok := index[ex.Concept.Name]; !ok {
				index[ex.Concept.Name] = len(names)
				names = append(names, ex.Concept.Name)
			}
		}
	}
	extended := s.Extractor.BatchExtended(names)
	for gi := range groups {
		for ei := range groups[gi].Examples {
			ex := &groups[gi].Examples[ei]
			ex.Extended = extended[index[ex.Concept.Name]]
		}
	}
	c := cv{groups: groups, folds: folds, seed: seed}
	selected = c.run(&core.LearnedMethod{Options: ranksvm.Options{Seed: seed}})
	withEliminated = c.run(&core.LearnedMethod{
		Label:         "All Features + Eliminated Candidates",
		UseEliminated: true,
		Options:       ranksvm.Options{Seed: seed},
	})
	return selected, withEliminated, c.err
}
