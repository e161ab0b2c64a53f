// Package contextrank is a from-scratch reproduction of "Contextual Ranking
// of Keywords Using Click Data" (Irmak, von Brzeski, Kraft — ICDE 2009): the
// Contextual Shortcuts user-centric entity detection platform together with
// the click-trained ranker that orders detected concepts by interestingness
// and contextual relevance.
//
// Because the paper's resources (Yahoo! query logs, search index, news click
// instrumentation) are proprietary, the library ships a generative synthetic
// world (see internal/world) from which every resource is derived. The
// public API covers the full life cycle:
//
//	sys := contextrank.Build(contextrank.SmallConfig(42)) // world + resources + click data
//	ranker, err := sys.TrainRanker()                      // offline: mine features, train ranking SVM, pack tables
//	anns := ranker.Annotate(doc, 3)                       // online: detect + rank + annotate top-3
//
// The paper's evaluation section (Tables II–VI, the production experiment,
// the extensions) is not part of this API: it is internal/experiments, a set
// of functions over System.Internal(), and cmd/experiments prints them next
// to the published numbers.
package contextrank

import (
	"fmt"
	"io"

	"contextrank/internal/core"
	"contextrank/internal/detect"
	"contextrank/internal/framework"
	"contextrank/internal/newsgen"
	"contextrank/internal/par"
	"contextrank/internal/ranksvm"
	"contextrank/internal/relevance"
	"contextrank/internal/searchsim"
	"contextrank/internal/world"
)

// Config parameterizes a full system build (world generation, resource
// mining, click simulation). The zero value with a Seed produces the
// paper-scale world; SmallConfig returns a fast laptop-scale variant.
type Config = core.Config

// Concept is a keyword phrase with its latent ground-truth attributes (the
// synthetic world's hidden variables; useful for inspection and tests).
type Concept = world.Concept

// EntityType is the taxonomy type of a named entity.
type EntityType = world.EntityType

// Annotation is one ranked shortcut produced by the production runtime.
type Annotation = framework.Annotation

// Detection is one detected entity occurrence.
type Detection = detect.Detection

// SmallConfig returns a fast configuration (~300 concepts) suitable for
// tests and the quickstart example; it finishes in seconds.
func SmallConfig(seed int64) Config {
	return Config{
		Seed:   seed,
		World:  world.Config{VocabSize: 2000, NumTopics: 10, NumConcepts: 300},
		Corpus: searchsim.CorpusConfig{MaxDocsPerConcept: 18},
		News:   newsgen.Config{NumStories: 250},
	}
}

// PaperConfig returns the configuration used to regenerate the paper's
// tables: a world with the approximate data volume of §V-A.1.
func PaperConfig(seed int64) Config {
	return Config{
		Seed:  seed,
		World: world.Config{VocabSize: 6000, NumTopics: 24, NumConcepts: 1200},
		News:  newsgen.Config{NumStories: 1100},
	}
}

// System is the built reproduction: the synthetic world, every mined
// resource, and the simulated click traffic.
type System struct {
	sys *core.System
}

// Build generates the world and all resources deterministically from the
// configuration.
func Build(cfg Config) *System {
	return &System{sys: core.Build(cfg)}
}

// Internal returns the underlying core system for advanced use (experiment
// drivers, direct resource access). The returned value is shared, not a
// copy.
func (s *System) Internal() *core.System { return s.sys }

// Concepts returns the world's concept inventory.
func (s *System) Concepts() []Concept { return s.sys.World.Concepts }

// DataStats summarizes the click corpus after the paper's cleaning rules.
func (s *System) DataStats() core.DataStats { return s.sys.DataStats() }

// TrainRanker mines the offline artifacts (interestingness table, relevant
// keyword packs), trains the combined interestingness+relevance ranking SVM
// on the click data, and assembles the production runtime of §VI. It runs
// as a stage graph: the snippet store is mined beside the warming of every
// concept's feature record; then the dataset join and the fit run beside
// the runtime's tables, which do not read the model; the model joins them
// last.
func (s *System) TrainRanker() (*Ranker, error) {
	sys := s.sys
	method := &core.LearnedMethod{
		UseRelevance: true,
		Resource:     relevance.Snippets,
		Options:      ranksvm.Options{Seed: sys.Config.Seed},
	}
	par.Do(
		func() { sys.RelevanceStore(relevance.Snippets) },
		func() { sys.WarmFields(sys.ConceptNames()) },
	)
	var tables *framework.Tables
	var err error
	par.Do(
		func() { err = method.Fit(sys.Dataset([]relevance.Resource{relevance.Snippets})) },
		func() { tables = sys.RuntimeTables() },
	)
	if err != nil {
		return nil, fmt.Errorf("contextrank: train: %w", err)
	}
	return &Ranker{runtime: tables.Runtime(method.Model())}, nil
}

// LoadBundle restores a complete offline artifact (interestingness table,
// keyword packs and model) saved with Ranker.SaveBundle, skipping all
// mining and training. The bundle must have been built for this world: its
// interestingness table holds exactly the world's concepts.
func (s *System) LoadBundle(r io.Reader) (*Ranker, error) {
	b, err := framework.LoadBundle(r)
	if err != nil {
		return nil, err
	}
	concepts := s.sys.World.Concepts
	if n := b.Interest.Len(); n != len(concepts) {
		return nil, fmt.Errorf("contextrank: bundle holds %d concepts, this world %d", n, len(concepts))
	}
	for i := range concepts {
		if _, ok := b.Interest.Fields(concepts[i].Name); !ok {
			return nil, fmt.Errorf("contextrank: bundle lacks this world's concept %q", concepts[i].Name)
		}
	}
	rt := framework.NewRuntime(s.sys.Pipeline, b.Interest, b.Packs, b.Model)
	return &Ranker{runtime: rt}, nil
}

// Ranker is the online system: detection, feature lookup, relevance scoring
// and model ranking over in-memory packed tables.
type Ranker struct {
	runtime *framework.Runtime
}

// Annotate detects entities in a document and returns them ranked by the
// learned model, keeping the top n concepts (n <= 0 keeps all). Pattern
// entities (emails, URLs, phones) are always annotated and lead the result.
func (r *Ranker) Annotate(text string, n int) []Annotation {
	return r.runtime.Annotate(text, n)
}

// Keywords returns the top-k ranked concept phrases of a document — the
// "key concepts" consumed by contextual advertising and summarization.
// k <= 0 returns every distinct concept, as Annotate's n <= 0 keeps all.
func (r *Ranker) Keywords(text string, k int) []string {
	anns := r.Annotate(text, k)
	out := make([]string, 0, max(k, 0))
	seen := make(map[string]bool, max(k, 0))
	for _, a := range anns {
		if a.Detection.Kind == detect.KindPattern || seen[a.Detection.Norm] {
			continue
		}
		seen[a.Detection.Norm] = true
		out = append(out, a.Detection.Norm)
		if len(out) == k {
			break
		}
	}
	return out
}

// SaveBundle serializes the complete offline artifact: quantized
// interestingness table, packed keyword store and model, with a checksum.
func (r *Ranker) SaveBundle(w io.Writer) error {
	b := &framework.Bundle{
		Interest: r.runtime.Interest,
		Packs:    r.runtime.Packs,
		Model:    r.runtime.Model,
	}
	return b.Save(w)
}

// Runtime exposes the underlying production runtime (for the HTTP serving
// layer and the online adjuster).
func (r *Ranker) Runtime() *framework.Runtime { return r.runtime }

// MemoryFootprint reports the packed table sizes in bytes: the quantized
// interestingness store (18 B/concept) and the keyword packs
// (≤400 B/concept).
func (r *Ranker) MemoryFootprint() (interestBytes, keywordBytes int) {
	return r.runtime.Interest.MemoryBytes(), r.runtime.Packs.TotalBytes()
}
