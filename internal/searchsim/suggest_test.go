package searchsim

import (
	"strings"
	"testing"

	"contextrank/internal/match"
	"contextrank/internal/querylog"
	"contextrank/internal/textproc"
	"contextrank/internal/world"
)

// containsPhrase is the string form of the suggestion service's phrase
// filter, kept as its oracle: whether hay contains needle contiguously.
func containsPhrase(hay, needle []string) bool {
	if len(needle) > len(hay) {
		return false
	}
	for i := 0; i+len(needle) <= len(hay); i++ {
		match := true
		for j := range needle {
			if hay[i+j] != needle[j] {
				match = false
				break
			}
		}
		if match {
			return true
		}
	}
	return false
}

// TestPhraseFilterMatchesOracle holds the id-based phrase filter
// suggestIndexes applies (the request interned with AppendIDs, then
// Log.ContainsPhrase) to the string oracle on every query of a log: for
// every concept name of a generated world, each with a term missing from
// the log and with its last term repeated, and on a hand log whose
// queries repeat a term.
func TestPhraseFilterMatchesOracle(t *testing.T) {
	w := world.New(world.Config{Seed: 31, VocabSize: 1500, NumTopics: 8, NumConcepts: 250})
	hand := querylog.FromCounts(map[string]int{
		"alpha alpha beta": 3, "alpha beta": 2, "beta alpha alpha": 1, "gamma": 1,
	})
	const missing = "zzqx"
	for _, l := range []*querylog.Log{querylog.Generate(w, querylog.Config{Seed: 33}), hand} {
		if l.Vocab().ID(missing) != match.NoID {
			t.Fatalf("%q is a log term; pick another missing term", missing)
		}
		phrases := [][]string{{"alpha", "alpha"}, {"alpha", "beta"}, {"alpha", missing}}
		for i := range w.Concepts {
			terms := textproc.Words(w.Concepts[i].Name)
			phrases = append(phrases, terms,
				append([]string{missing}, terms...),
				append(terms[:len(terms):len(terms)], terms[len(terms)-1]))
		}
		hay := make([][]string, len(l.Queries))
		for qi, q := range l.Queries {
			hay[qi] = strings.Fields(q.Text)
		}
		matched := 0
		for _, p := range phrases {
			ids := l.Vocab().AppendIDs(nil, p)
			for qi := range hay {
				want := containsPhrase(hay[qi], p)
				if got := l.ContainsPhrase(qi, ids); got != want {
					t.Fatalf("ContainsPhrase(%q, %q) = %v, oracle %v", l.Queries[qi].Text, p, got, want)
				}
				if want {
					matched++
				}
			}
		}
		if matched == 0 {
			t.Fatal("no query contains any phrase: the test is vacuous")
		}
	}
}
