// Package core assembles the Contextual Shortcuts system and nothing else:
// it builds the synthetic world and every mined resource on top of it,
// turns the simulated click reports into labeled ranking datasets, and
// holds the one learned method the offline build fits (LearnedMethod). The
// paper's evaluation — baselines, cross-validation, Tables II–VI and the
// extension experiments — lives in internal/experiments as functions over a
// *System, so no serving or offline binary links it.
package core

import (
	"sync"

	"contextrank/internal/clicksim"
	"contextrank/internal/detect"
	"contextrank/internal/features"
	"contextrank/internal/framework"
	"contextrank/internal/newsgen"
	"contextrank/internal/par"
	"contextrank/internal/querylog"
	"contextrank/internal/relevance"
	"contextrank/internal/searchsim"
	"contextrank/internal/taxonomy"
	"contextrank/internal/units"
	"contextrank/internal/wiki"
	"contextrank/internal/world"
)

// Config parameterizes a full system build. The zero value produces a
// laptop-scale world with the paper's approximate data volume. Sub-config
// seeds left at zero are derived from Seed.
type Config struct {
	Seed     int64
	World    world.Config
	QueryLog querylog.Config
	Units    units.Config
	Corpus   searchsim.CorpusConfig
	Wiki     wiki.Config
	News     newsgen.Config
	Click    clicksim.Config
}

func (c Config) withDerivedSeeds() Config {
	if c.World.Seed == 0 {
		c.World.Seed = c.Seed + 1
	}
	if c.QueryLog.Seed == 0 {
		c.QueryLog.Seed = c.Seed + 2
	}
	if c.Corpus.Seed == 0 {
		c.Corpus.Seed = c.Seed + 3
	}
	if c.Wiki.Seed == 0 {
		c.Wiki.Seed = c.Seed + 4
	}
	if c.News.Seed == 0 {
		c.News.Seed = c.Seed + 5
	}
	if c.Click.Seed == 0 {
		c.Click.Seed = c.Seed + 6
	}
	return c
}

// System is the fully-built reproduction: all substrates plus the simulated
// click traffic.
type System struct {
	Config Config

	World     *world.World
	Log       *querylog.Log
	Units     *units.Set
	Engine    *searchsim.Engine
	Wiki      *wiki.Encyclopedia
	Dict      *taxonomy.Dictionary
	Extractor *features.Extractor
	Miner     *relevance.Miner
	Pipeline  *detect.Pipeline

	Stories []newsgen.Story
	Reports []clicksim.Report // raw, before cleaning
	Cleaned []clicksim.Report
	Groups  []clicksim.WindowGroup

	// cacheMu guards the lazily-filled feature cache, which is hit by
	// concurrent experiment workers, so every access goes through the
	// accessors below.
	cacheMu sync.RWMutex
	//kw:guardedby(cacheMu)
	fieldsCache map[string]features.Fields

	// relStores are the lazily-mined relevance stores, one slot per
	// Resource with its own once-guard: concurrent requests for the same
	// resource build once, while different resources mine concurrently —
	// under the previous single mutex a Prisma build serialized behind an
	// in-flight Snippets build.
	relOnce   [relevance.NumResources]sync.Once
	relStores [relevance.NumResources]*relevance.Store

	// ctxPool holds *relevance.Ctx over Miner.Dict() for the dataset
	// joins (acquireCtx), each keeping its stem memo warm across users.
	ctxPool sync.Pool
}

// Build generates the world and every resource as a stage graph over the
// paper's offline pipeline. After the world, three branches run side by
// side (par.Do): query log → units; the web corpus and its index;
// Wikipedia → dictionaries → news stories → click sampling → cleaning →
// windowing. The extractor, the miner and the detection pipeline join
// their outputs. Each stage draws from its own seed and reads only the
// world and its own branch's finished outputs, so the system is the same
// at any GOMAXPROCS.
func Build(cfg Config) *System {
	cfg = cfg.withDerivedSeeds()
	s := &System{Config: cfg}
	s.World = world.New(cfg.World)
	par.Do(
		func() {
			s.Log = querylog.Generate(s.World, cfg.QueryLog)
			s.Units = units.Extract(s.Log, cfg.Units)
		},
		func() { s.Engine = searchsim.BuildCorpus(s.World, cfg.Corpus) },
		func() {
			s.Wiki = wiki.Build(s.World, cfg.Wiki)
			s.Dict = taxonomy.Build(s.World, cfg.Seed+7)
			s.Stories = newsgen.Generate(s.World, cfg.News)
			s.Reports = clicksim.Simulate(s.Stories, cfg.Click)
			s.Cleaned = clicksim.Clean(s.Reports)
			s.Groups = clicksim.Windows(s.Cleaned, 0, 0) // paper defaults 2500/500
		},
	)
	s.Extractor = features.NewExtractor(s.Log, s.Units, s.Engine, s.Wiki, s.Dict)
	s.Miner = relevance.NewMiner(s.Engine, searchsim.NewPrisma(s.Engine), searchsim.NewSuggestor(s.Log))
	s.Pipeline = detect.New(s.Dict, s.Units)
	s.fieldsCache = make(map[string]features.Fields)
	return s
}

// Fields returns the (cached) interestingness feature record for a concept.
// Safe for concurrent callers; a cache miss recomputes outside the lock
// (the record is a pure function of read-only resources, so a racing
// double-compute stores the same value).
func (s *System) Fields(concept string) features.Fields {
	s.cacheMu.RLock()
	f, ok := s.fieldsCache[concept]
	s.cacheMu.RUnlock()
	if ok {
		return f
	}
	f = s.Extractor.Fields(concept)
	s.cacheMu.Lock()
	s.fieldsCache[concept] = f
	s.cacheMu.Unlock()
	return f
}

// WarmFields batch-extracts the feature records of every listed concept
// not already cached, fanning the extraction across GOMAXPROCS. The
// cache ends up in the same state as serial lazy filling — warming is a
// pure wall-clock optimization.
func (s *System) WarmFields(concepts []string) {
	// The deduplicated concepts not yet cached, in first-seen order.
	s.cacheMu.RLock()
	seen := make(map[string]bool, len(concepts))
	var missing []string
	for _, c := range concepts {
		if _, cached := s.fieldsCache[c]; seen[c] || cached {
			continue
		}
		seen[c] = true
		missing = append(missing, c)
	}
	s.cacheMu.RUnlock()
	if len(missing) == 0 {
		return
	}
	fields := s.Extractor.BatchFields(missing)
	s.cacheMu.Lock()
	for i, c := range missing {
		s.fieldsCache[c] = fields[i]
	}
	s.cacheMu.Unlock()
}

// RelevanceStore returns the (lazily-built) relevant-keyword store for a
// resource, mined over every concept that appears in the click data plus
// every world concept (so unseen test concepts are covered too). Safe for
// concurrent callers: the first one builds (itself fanning out across
// GOMAXPROCS) while the rest wait; builds for different resources do not
// block each other.
func (s *System) RelevanceStore(r relevance.Resource) *relevance.Store {
	s.relOnce[r].Do(func() {
		s.relStores[r] = relevance.BuildStore(s.Miner, s.ConceptNames(), r)
	})
	return s.relStores[r]
}

// RuntimeTables assembles everything of the §VI runtime that does not read
// the model, so the offline build runs it beside the fit: every world
// concept's feature record (warmed across GOMAXPROCS) in the
// interestingness table, beside the snippet-mined keyword packs; then the
// word table over the packs and the detection pipeline.
func (s *System) RuntimeTables() *framework.Tables {
	var table *framework.InterestTable
	var packs *framework.KeywordPacks
	par.Do(
		func() {
			names := s.ConceptNames()
			s.WarmFields(names)
			table = framework.BuildInterestTable(names, s.Fields)
		},
		func() { packs = framework.BuildKeywordPacks(s.RelevanceStore(relevance.Snippets)) },
	)
	return framework.NewTables(s.Pipeline, table, packs)
}

// ConceptNames lists the world's concepts in inventory order.
func (s *System) ConceptNames() []string {
	names := make([]string, len(s.World.Concepts))
	for i := range s.World.Concepts {
		names[i] = s.World.Concepts[i].Name
	}
	return names
}

// DataStats reproduces the §V-A.1 data description: stories, concepts,
// clicks after cleaning, and window count.
type DataStats struct {
	RawStories   int
	CleanStories int
	Concepts     int
	Clicks       int
	Windows      int
}

// DataStats summarizes the system's click corpus.
func (s *System) DataStats() DataStats {
	sum := clicksim.Summarize(s.Cleaned)
	return DataStats{
		RawStories:   len(s.Reports),
		CleanStories: sum.Stories,
		Concepts:     sum.Concepts,
		Clicks:       sum.Clicks,
		Windows:      len(s.Groups),
	}
}
