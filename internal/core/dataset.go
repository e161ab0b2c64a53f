package core

import (
	"slices"

	"contextrank/internal/features"
	"contextrank/internal/newsgen"
	"contextrank/internal/par"
	"contextrank/internal/relevance"
	"contextrank/internal/world"
)

// Example is one annotated entity in one window: the ranking unit. The
// label is the observed CTR; features come from the offline stores.
type Example struct {
	// Concept is the annotated concept.
	Concept *world.Concept
	// CTR is the observed click-through rate (clicks / window views).
	CTR float64
	// Clicks and Views are the raw counts behind CTR.
	Clicks, Views int
	// Position is the byte offset within the window.
	Position int
	// Relevant is the hidden ground-truth relevance (never exposed to
	// rankers; used by the editorial simulator).
	Relevant bool
	// Degree is the hidden graded relevance in [0,1].
	Degree float64
	// Fields is the interestingness feature record.
	Fields features.Fields
	// Extended carries the paper's eliminated candidate features. Dataset
	// leaves it zero; the feature-selection experiment fills it for its
	// own groups.
	Extended features.ExtendedFields
	// RelScore holds the context relevance score per mining resource.
	RelScore map[relevance.Resource]float64
	// RelNorm holds the coverage-normalized relevance score per resource.
	RelNorm map[relevance.Resource]float64
}

// Group is one ranking problem: the entities of one window plus the window
// text (needed by the concept-vector baseline).
type Group struct {
	// ID is a dense group identifier.
	ID int
	// StoryID and WindowIndex locate the group.
	StoryID, WindowIndex int
	// Text is the window content.
	Text string
	// Views is the window's (story's) view count.
	Views int
	// Examples are the entities to rank.
	Examples []Example
}

// CTRs returns the observed CTR labels of the group's examples.
func (g *Group) CTRs() []float64 {
	out := make([]float64, len(g.Examples))
	for i := range g.Examples {
		out[i] = g.Examples[i].CTR
	}
	return out
}

// boundStore is a relevance store and its resource, the unit the feature
// joins iterate over (always in the caller's resource order, never map
// order).
type boundStore struct {
	r  relevance.Resource
	st *relevance.Store
}

// bindStores resolves (and lazily mines) the requested stores, deduplicated
// in first-seen order.
func (s *System) bindStores(resources []relevance.Resource) []boundStore {
	var out []boundStore
	for _, r := range resources {
		if !slices.ContainsFunc(out, func(b boundStore) bool { return b.r == r }) {
			out = append(out, boundStore{r: r, st: s.RelevanceStore(r)})
		}
	}
	return out
}

// acquireCtx takes a pooled context over the miner's stem dictionary for
// scoring the bound stores: every mined store indexes that dictionary, so
// one window load scores them all. No stores need no context (nil);
// releaseCtx returns one to the pool.
func (s *System) acquireCtx(stores []boundStore) *relevance.Ctx {
	if len(stores) == 0 {
		return nil
	}
	if ctx, ok := s.ctxPool.Get().(*relevance.Ctx); ok {
		return ctx
	}
	return relevance.NewCtx(s.Miner.Dict())
}

func (s *System) releaseCtx(ctx *relevance.Ctx) {
	if ctx != nil {
		s.ctxPool.Put(ctx)
	}
}

// scoreRelevance fills the example's relevance scores, one per bound store
// (none leaves the maps nil). Relevance is scored against the mention's
// surrounding context ("co-occurrences of the pre-mined keywords and the
// given concept in the context"), not the whole text, loaded into ctx once.
func (ex *Example) scoreRelevance(stores []boundStore, ctx *relevance.Ctx, text string) {
	if len(stores) == 0 {
		return
	}
	ex.RelScore = make(map[relevance.Resource]float64, len(stores))
	ex.RelNorm = make(map[relevance.Resource]float64, len(stores))
	ctx.SetAround(text, ex.Position)
	for _, b := range stores {
		ex.RelScore[b.r] = b.st.ScoreCtx(ex.Concept.Name, ctx)
		ex.RelNorm[b.r] = b.st.NormalizedScoreCtx(ex.Concept.Name, ctx)
	}
}

// Dataset materializes the ranking dataset from the system's window groups,
// attaching interestingness features and the relevance scores for the given
// resources (pass nil for interestingness-only experiments). This is the
// offline feature join the paper performs before training. The join fans
// out by window across GOMAXPROCS, each window scored with a pooled
// context, into the window's slot.
func (s *System) Dataset(resources []relevance.Resource) []Group {
	stores := s.bindStores(resources)
	// Batch-extract the features of every concept in the click data across
	// workers before the join below — extraction dominates the join.
	var names []string
	for _, wg := range s.Groups {
		for _, e := range wg.Entities {
			names = append(names, e.Concept.Name)
		}
	}
	s.WarmFields(names)
	return par.Map(0, len(s.Groups), func(gi int) Group {
		wg := &s.Groups[gi]
		ctx := s.acquireCtx(stores)
		defer s.releaseCtx(ctx)
		g := Group{
			ID:          gi,
			StoryID:     wg.StoryID,
			WindowIndex: wg.WindowIndex,
			Text:        wg.Text,
			Views:       wg.Views,
		}
		for _, e := range wg.Entities {
			ex := Example{
				Concept:  e.Concept,
				CTR:      e.CTR(wg.Views),
				Clicks:   e.Clicks,
				Views:    wg.Views,
				Position: e.Position,
				Relevant: e.Relevant,
				Degree:   e.Degree,
				Fields:   s.Fields(e.Concept.Name),
			}
			ex.scoreRelevance(stores, ctx, wg.Text)
			g.Examples = append(g.Examples, ex)
		}
		return g
	})
}

// GroupFromStory builds an unlabeled ranking group from any document, so
// trained methods can rank entities outside the click corpus.
func (s *System) GroupFromStory(story *newsgen.Story, resources []relevance.Resource) Group {
	g := Group{StoryID: story.ID, Text: story.Text}
	stores := s.bindStores(resources)
	ctx := s.acquireCtx(stores)
	defer s.releaseCtx(ctx)
	for _, m := range story.Mentions {
		ex := Example{
			Concept:  m.Concept,
			Position: m.Position,
			Relevant: m.Relevant,
			Degree:   m.Degree,
			Fields:   s.Fields(m.Concept.Name),
		}
		ex.scoreRelevance(stores, ctx, story.Text)
		g.Examples = append(g.Examples, ex)
	}
	return g
}

// AllCTRs collects every CTR label across groups (for the NDCG bucketizer,
// which the paper builds from "all the CTR values observed in the system").
func AllCTRs(groups []Group) []float64 {
	var out []float64
	for i := range groups {
		for j := range groups[i].Examples {
			out = append(out, groups[i].Examples[j].CTR)
		}
	}
	return out
}
