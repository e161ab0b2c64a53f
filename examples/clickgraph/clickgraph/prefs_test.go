package clickgraph

import (
	"math/rand"
	"testing"

	"contextrank/examples/trending/online"
	"contextrank/internal/clicksim"
	"contextrank/internal/newsgen"
	"contextrank/internal/ranksvm"
	"contextrank/internal/world"
)

func report(storyID, views int, ents ...clicksim.EntityStat) clicksim.Report {
	return clicksim.Report{Story: &newsgen.Story{ID: storyID}, Views: views, Entities: ents}
}

func ent(c *world.Concept, pos, clicks int) clicksim.EntityStat {
	return clicksim.EntityStat{Concept: c, Position: pos, Clicks: clicks}
}

// TestExtractPreferencesClickSkip pins the Query-Chains rule: a pair is
// emitted only when the winner sits strictly later AND strictly
// out-clicks, above the noise floor.
func TestExtractPreferencesClickSkip(t *testing.T) {
	a := &world.Concept{Name: "alpha"}
	b := &world.Concept{Name: "beta"}
	c := &world.Concept{Name: "gamma"}
	reports := []clicksim.Report{
		// beta (pos 500, 6 clicks) beats alpha (pos 10, 2 clicks);
		// gamma (pos 900, 1 click) is under the noise floor.
		report(1, 100, ent(a, 10, 2), ent(b, 500, 6), ent(c, 900, 1)),
		// Earlier-position winner: no pair (position bias explains it).
		report(2, 100, ent(a, 10, 6), ent(b, 500, 2)),
	}
	prefs := ExtractPreferences(reports)
	if len(prefs) != 1 {
		t.Fatalf("got %d prefs (%+v), want 1", len(prefs), prefs)
	}
	p := prefs[0]
	if p.Winner != "beta" || p.Loser != "alpha" || p.StoryID != 1 {
		t.Fatalf("pref = %+v", p)
	}
	if p.Margin <= 0 || p.WinnerClicks != 6 || p.LoserClicks != 2 {
		t.Fatalf("pref fields = %+v", p)
	}
}

// TestPreferencesTrainRankSVM: pairs extracted from a simulated click log
// train a ranksvm model that recovers the hidden quality ordering far
// above chance.
func TestPreferencesTrainRankSVM(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	// Hidden per-concept quality drives clicks; the feature vector leaks a
	// noisy view of it, like the paper's relevance features.
	const nConcepts = 30
	quality := make([]float64, nConcepts)
	feature := make([]float64, nConcepts)
	concepts := make([]*world.Concept, nConcepts)
	for i := range quality {
		quality[i] = rng.Float64()
		feature[i] = quality[i] + 0.1*rng.NormFloat64()
		concepts[i] = &world.Concept{Name: "q" + string(rune('a'+i%26)) + string(rune('a'+i/26))}
	}
	var reports []clicksim.Report
	for s := 0; s < 120; s++ {
		views := 200
		var ents []clicksim.EntityStat
		for e := 0; e < 5; e++ {
			ci := rng.Intn(nConcepts)
			ctr := 0.02 + 0.1*quality[ci]
			clicks := 0
			for v := 0; v < views; v++ {
				if rng.Float64() < ctr {
					clicks++
				}
			}
			ents = append(ents, ent(concepts[ci], e*400, clicks))
		}
		reports = append(reports, report(s, views, ents...))
	}
	prefs := ExtractPreferences(reports)
	if len(prefs) < 50 {
		t.Fatalf("only %d prefs extracted", len(prefs))
	}
	idx := func(name string) int {
		for i, c := range concepts {
			if c.Name == name {
				return i
			}
		}
		t.Fatalf("unknown concept %s", name)
		return -1
	}
	inst := Instances(prefs, func(_ int, concept string) []float64 {
		return []float64{feature[idx(concept)], 1}
	})
	model, err := ranksvm.Train(inst, ranksvm.Options{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	// Pairwise accuracy on the hidden quality ordering.
	correct, total := 0, 0
	for i := 0; i < nConcepts; i++ {
		for j := i + 1; j < nConcepts; j++ {
			si := model.Score([]float64{feature[i], 1})
			sj := model.Score([]float64{feature[j], 1})
			if si == sj {
				continue
			}
			total++
			if (si > sj) == (quality[i] > quality[j]) {
				correct++
			}
		}
	}
	if total == 0 {
		t.Fatal("degenerate model: all scores equal")
	}
	acc := float64(correct) / float64(total)
	if acc < 0.8 {
		t.Fatalf("pairwise accuracy %.3f < 0.8 (%d/%d)", acc, correct, total)
	}
}

// TestEventsAggregation: Events sums views/clicks per concept, sorted by
// name, and feeds online.Tracker so heavily-clicked concepts surface.
func TestEventsAggregation(t *testing.T) {
	a := &world.Concept{Name: "alpha"}
	b := &world.Concept{Name: "beta"}
	reports := []clicksim.Report{
		report(1, 100, ent(a, 0, 8), ent(b, 300, 1)),
		report(2, 50, ent(a, 0, 4)),
	}
	evs := Events(reports)
	if len(evs) != 2 || evs[0].Concept != "alpha" || evs[1].Concept != "beta" {
		t.Fatalf("Events = %+v", evs)
	}
	if evs[0].Views != 150 || evs[0].Clicks != 12 || evs[1].Views != 100 || evs[1].Clicks != 1 {
		t.Fatalf("aggregation wrong: %+v", evs)
	}

	// With equal baselines, the boost orders concepts by moving CTR.
	tr := online.NewTracker(online.Config{})
	tr.SetBaseline("alpha", 0.05)
	tr.SetBaseline("beta", 0.05)
	for i := 0; i < 5; i++ {
		tr.Tick(evs)
	}
	if a, b := tr.Boost("alpha"), tr.Boost("beta"); !(a > b) {
		t.Fatalf("tracker boosts not ordered by CTR: alpha=%.4f beta=%.4f", a, b)
	}
}

// TestPrefsFromSimulatedGraphPipeline: the full chain — clicksim reports →
// graph + preferences + events — stays consistent: every preference
// endpoint is a graph node wherever it earned a click.
func TestPrefsFromSimulatedGraphPipeline(t *testing.T) {
	w := world.New(world.Config{Seed: 42, VocabSize: 1200, NumTopics: 8, NumConcepts: 120})
	stories := newsgen.Generate(w, newsgen.Config{Seed: 42, NumStories: 80})
	reports := clicksim.Clean(clicksim.Simulate(stories, clicksim.Config{Seed: 42}))
	if len(reports) < 10 {
		t.Fatalf("only %d cleaned reports", len(reports))
	}
	g := FromReports(reports, 0)
	if g.Stats().Edges == 0 {
		t.Fatal("no edges from simulated reports")
	}
	prefs := ExtractPreferences(reports)
	for _, p := range prefs {
		if p.WinnerClicks < MinWinnerClicks {
			t.Fatalf("pref under noise floor: %+v", p)
		}
		if _, ok := g.ConceptID(p.Winner); !ok {
			t.Fatalf("winner %q not a graph node", p.Winner)
		}
		sn, ok := g.StoryNode(p.StoryID)
		if !ok {
			t.Fatalf("story %d not a graph node", p.StoryID)
		}
		cid, _ := g.ConceptID(p.Winner)
		if w, ok := g.Clicks(cid, sn); !ok || int(w) < p.WinnerClicks {
			t.Fatalf("graph weight %d inconsistent with pref %+v", w, p)
		}
	}
}
