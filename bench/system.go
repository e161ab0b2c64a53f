package main

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"time"

	"contextrank"
	"contextrank/internal/annotate"
	"contextrank/internal/clicksim"
	"contextrank/internal/core"
	"contextrank/internal/features"
	"contextrank/internal/framework"
	"contextrank/internal/newsgen"
	"contextrank/internal/querylog"
	"contextrank/internal/ranksvm"
	"contextrank/internal/relevance"
	"contextrank/internal/searchsim"
	"contextrank/internal/taxonomy"
	"contextrank/internal/units"
	"contextrank/internal/wiki"
	"contextrank/internal/world"
)

// system is one built offline pipeline plus the serving runtime restored
// from its saved bundle, the way a serving process would hold it.
type system struct {
	inner       *core.System
	rt          *framework.Runtime
	suggestor   *searchsim.Suggestor
	renderer    *annotate.Renderer
	bundleBytes int
}

// stageTimes collects named durations in seconds (traced runs only).
type stageTimes map[string]float64

func (st stageTimes) time(name string, fn func()) {
	start := time.Now()
	fn()
	if st != nil {
		st[name] += time.Since(start).Seconds()
	}
}

// buildSystem runs the offline pipeline end to end: Build, TrainRanker,
// SaveBundle, LoadBundle. With stages non-nil it runs TrainRanker's steps
// one by one through the same public functions, timing each, so the traced
// run has a set-up budget; both paths produce the same runtime (the test
// suite compares their output digests).
func buildSystem(cfg contextrank.Config, stages stageTimes) (*system, error) {
	var sys *contextrank.System
	stages.time("core.build_s", func() { sys = contextrank.Build(cfg) })

	var save func(io.Writer) error
	if stages == nil {
		ranker, err := sys.TrainRanker()
		if err != nil {
			return nil, err
		}
		save = ranker.SaveBundle
	} else {
		b, err := trainStaged(sys.Internal(), stages)
		if err != nil {
			return nil, err
		}
		save = b.Save
	}

	var bundle bytes.Buffer
	var err error
	stages.time("framework.bundle_save_s", func() { err = save(&bundle) })
	if err != nil {
		return nil, fmt.Errorf("save bundle: %w", err)
	}
	size := bundle.Len()
	var loaded *contextrank.Ranker
	stages.time("framework.bundle_load_s", func() { loaded, err = sys.LoadBundle(&bundle) })
	if err != nil {
		return nil, fmt.Errorf("load bundle: %w", err)
	}

	inner := sys.Internal()
	s := &system{inner: inner, rt: loaded.Runtime(), bundleBytes: size}
	// The renderer is wired exactly as cmd/serve wires it.
	s.suggestor = searchsim.NewSuggestor(inner.Log)
	s.renderer = annotate.NewRenderer(&annotate.DefaultProvider{
		Snippets: inner.Engine.Snippets,
		Related: func(q string, max int) []string {
			var out []string
			for _, sg := range s.suggestor.Suggest(q, max) {
				out = append(out, sg.Text)
			}
			return out
		},
		ArticleWords: inner.Wiki.WordCount,
	})
	return s, nil
}

// trainStaged is contextrank.System.TrainRanker step by step. The bundle
// round trip that follows makes the served runtime depend only on the
// interest table, the keyword packs and the model built here.
func trainStaged(inner *core.System, stages stageTimes) (*framework.Bundle, error) {
	res := []relevance.Resource{relevance.Snippets}
	var store *relevance.Store
	stages.time("relevance.mine_snippets_s", func() { store = inner.RelevanceStore(relevance.Snippets) })
	var groups []core.Group
	stages.time("core.dataset_s", func() { groups = inner.Dataset(res) })
	method := &core.LearnedMethod{
		UseRelevance: true,
		Resource:     relevance.Snippets,
		Options:      ranksvm.Options{Seed: inner.Config.Seed},
	}
	var err error
	stages.time("ranksvm.fit_s", func() { err = method.Fit(groups) })
	if err != nil {
		return nil, err
	}
	names := make([]string, len(inner.World.Concepts))
	for i := range inner.World.Concepts {
		names[i] = inner.World.Concepts[i].Name
	}
	stages.time("features.batchfields_s", func() { inner.WarmFields(names) })
	var table *framework.InterestTable
	stages.time("framework.interest_table_s", func() {
		table = framework.BuildInterestTable(names, func(n string) features.Fields { return inner.Fields(n) })
	})
	var packs *framework.KeywordPacks
	stages.time("framework.keyword_packs_s", func() { packs = framework.BuildKeywordPacks(store) })
	return &framework.Bundle{Interest: table, Packs: packs, Model: method.Model()}, nil
}

// timeBuildStages re-invokes each public stage function of core.Build on
// the built system's configuration (which carries the derived seeds), so
// core.build_s has a breakdown. The results are discarded.
func timeBuildStages(cfg core.Config, stages stageTimes) {
	var w *world.World
	stages.time("world.new_s", func() { w = world.New(cfg.World) })
	var log *querylog.Log
	stages.time("querylog.generate_s", func() { log = querylog.Generate(w, cfg.QueryLog) })
	stages.time("units.extract_s", func() { units.Extract(log, cfg.Units) })
	stages.time("searchsim.buildcorpus_s", func() { searchsim.BuildCorpus(w, cfg.Corpus) })
	stages.time("wiki.build_s", func() { wiki.Build(w, cfg.Wiki) })
	stages.time("taxonomy.build_s", func() { taxonomy.Build(w, cfg.Seed+7) })
	var stories []newsgen.Story
	stages.time("newsgen.generate_s", func() { stories = newsgen.Generate(w, cfg.News) })
	stages.time("clicksim.simulate_clean_window_s", func() {
		clicksim.Windows(clicksim.Clean(clicksim.Simulate(stories, cfg.Click)), 0, 0)
	})
}

// heapLiveMiB is what the process holds after a full collection.
func heapLiveMiB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}
