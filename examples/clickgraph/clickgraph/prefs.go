// Query-Chains-style pairwise preference extraction (PAPERS.md:
// Radlinski & Joachims, "Query chains: learning to rank from implicit
// feedback"). Within one report all entities share the story's views and
// render in position order, so a later-positioned entity out-clicking an
// earlier one expressed a preference that survives position bias: the
// winner overcame a worse slot. Each such pair becomes one ranksvm
// training group; the aggregated per-concept click totals feed the
// examples/trending/online tracker.
package clickgraph

import (
	"sort"

	"contextrank/examples/trending/online"
	"contextrank/internal/clicksim"
	"contextrank/internal/ranksvm"
)

// Preference is one extracted pairwise judgment: Winner should rank above
// Loser for the story's context.
type Preference struct {
	// StoryID is the report's story.
	StoryID int
	// Winner out-clicked Loser from a later (worse) position.
	Winner, Loser string
	// WinnerClicks and LoserClicks are the raw counts behind the pair.
	WinnerClicks, LoserClicks int
	// Margin is the CTR gap (winner − loser), in [0, 1].
	Margin float64
}

// MinWinnerClicks is the noise floor: a winner needs at least this many
// clicks before a pair is emitted (one click is not a judgment).
const MinWinnerClicks = 2

// ExtractPreferences walks the reports in order and emits click-skip
// preference pairs: entity i beats entity j when i sits at a strictly
// later position yet collected strictly more clicks, with at least
// MinWinnerClicks. The output order is deterministic (report order, then
// winner position, then loser position).
func ExtractPreferences(reports []clicksim.Report) []Preference {
	var prefs []Preference
	for ri := range reports {
		r := &reports[ri]
		if r.Views == 0 {
			continue
		}
		for i := range r.Entities {
			w := &r.Entities[i]
			if w.Clicks < MinWinnerClicks {
				continue
			}
			for j := range r.Entities {
				l := &r.Entities[j]
				if l.Position >= w.Position || l.Clicks >= w.Clicks {
					continue
				}
				prefs = append(prefs, Preference{
					StoryID:      r.Story.ID,
					Winner:       w.Concept.Name,
					Loser:        l.Concept.Name,
					WinnerClicks: w.Clicks,
					LoserClicks:  l.Clicks,
					Margin:       float64(w.Clicks-l.Clicks) / float64(r.Views),
				})
			}
		}
	}
	return prefs
}

// Instances converts preferences into ranksvm training instances: one
// group per preference, winner labeled 1 and loser 0, so the trainer forms
// exactly the extracted pairs. feat maps a concept name (in its story
// context) to a feature vector.
func Instances(prefs []Preference, feat func(storyID int, concept string) []float64) []ranksvm.Instance {
	out := make([]ranksvm.Instance, 0, 2*len(prefs))
	for gi, p := range prefs {
		out = append(out,
			ranksvm.Instance{Features: feat(p.StoryID, p.Winner), Label: 1, Group: gi},
			ranksvm.Instance{Features: feat(p.StoryID, p.Loser), Label: 0, Group: gi},
		)
	}
	return out
}

// Events aggregates reports into per-concept online.Event totals (views
// sum over every report mentioning the concept, clicks over its sampled
// clicks), sorted by concept name so one Tracker.Tick per reporting window
// is deterministic.
func Events(reports []clicksim.Report) []online.Event {
	agg := make(map[string]*online.Event)
	for ri := range reports {
		r := &reports[ri]
		for i := range r.Entities {
			e := &r.Entities[i]
			ev := agg[e.Concept.Name]
			if ev == nil {
				ev = &online.Event{Concept: e.Concept.Name}
				agg[e.Concept.Name] = ev
			}
			ev.Views += r.Views
			ev.Clicks += e.Clicks
		}
	}
	out := make([]online.Event, 0, len(agg))
	for _, ev := range agg {
		out = append(out, *ev)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Concept < out[j].Concept })
	return out
}
