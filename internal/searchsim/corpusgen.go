package searchsim

import (
	"math"
	"math/rand"

	"contextrank/internal/par"
	"contextrank/internal/textproc"
	"contextrank/internal/world"
)

// CorpusConfig parameterizes synthetic web-corpus generation.
type CorpusConfig struct {
	Seed int64
	// MaxDocsPerConcept bounds how many documents mention the most general
	// concept. Default 30.
	MaxDocsPerConcept int
}

func (c CorpusConfig) withDefaults() CorpusConfig {
	if c.MaxDocsPerConcept == 0 {
		c.MaxDocsPerConcept = 30
	}
	return c
}

// rawDoc is one generated-but-not-yet-indexed document, tokenized in a
// generation worker and indexed by newBulkEngine. The composed text is not
// kept: it lives only until it is tokenized.
type rawDoc struct {
	tokens []string
	topic  int
}

// The corpus's fixed shape.
const (
	// backgroundPerConcept is the number of documents mentioning no concept
	// at all, per concept (they give the index realistic document
	// frequencies).
	backgroundPerConcept = 2
	// docSentences is the approximate length of corpus documents.
	docSentences = 10
)

// backgroundShardSize bounds how many background documents one shard
// generates, so the background tail spreads across workers. Part of the
// seed-derivation layout: changing it changes the generated corpus.
const backgroundShardSize = 64

// BuildCorpus generates the synthetic web corpus and indexes it, yielding
// the engine every feature miner queries. Two properties of the paper's web
// are reproduced structurally:
//
//   - result counts grow with generality: the number of documents mentioning
//     a concept scales with (1 − Specificity);
//   - contexts cluster with specificity and quality: documents about
//     specific, good concepts are topical and dense in the concept's context
//     terms, whereas mentions of general/low-quality phrases are scattered
//     across random topics, so their mined keywords stay diffuse (the
//     Table II effect).
//
// The whole build fans out across GOMAXPROCS: generation shard i covers
// concept i (the last shards cover background documents), each shard draws
// from rand.NewSource(par.Seed(cfg.Seed, i)); the generated documents are
// then indexed and compressed into the engine's base segment by the bulk
// parallel pipeline (bulkindex.go), so every downstream miner queries
// compressed posting lists. Every stage is deterministic in content, so the
// corpus and index are bit-identical regardless of GOMAXPROCS or
// scheduling. The engine is live: Add, Commit and Compact keep working on it.
func BuildCorpus(w *world.World, cfg CorpusConfig) *Engine {
	cfg = cfg.withDefaults()
	shards := par.Map(0, numShards(w), func(i int) []rawDoc {
		var docs []rawDoc
		generateShard(w, cfg, i, func(text string, topic int) {
			docs = append(docs, rawDoc{tokens: textproc.Words(text), topic: topic})
		})
		return docs
	})

	total := 0
	for _, shard := range shards {
		total += len(shard)
	}
	docs := make([]rawDoc, 0, total)
	for _, shard := range shards {
		docs = append(docs, shard...)
	}

	return newBulkEngine(docs)
}

// numShards is the number of generation shards: one per concept, then the
// background documents in runs of backgroundShardSize.
func numShards(w *world.World) int {
	return len(w.Concepts) + (backgroundPerConcept*len(w.Concepts)+backgroundShardSize-1)/backgroundShardSize
}

// generateShard composes the documents of generation shard i, passing each
// text and its topic to emit in document order.
func generateShard(w *world.World, cfg CorpusConfig, i int, emit func(text string, topic int)) {
	rng := rand.New(rand.NewSource(par.Seed(cfg.Seed, i)))
	if i < len(w.Concepts) {
		conceptDocs(w, &w.Concepts[i], cfg, rng, emit)
		return
	}
	lo := (i - len(w.Concepts)) * backgroundShardSize
	backgroundDocs(w, min(backgroundShardSize, backgroundPerConcept*len(w.Concepts)-lo), rng, emit)
}

// conceptDocs generates every corpus document mentioning one concept.
func conceptDocs(w *world.World, c *world.Concept, cfg CorpusConfig, rng *rand.Rand, emit func(text string, topic int)) {
	// Document count: monotone in generality (feature 4 needs general
	// concepts to return more results) but with a floor, so specific
	// concepts still have a deep snippet pool — the Table II contrast
	// comes from *clustering*, not from result starvation.
	frac := 0.5 + 0.35*math.Pow(1-c.Specificity, 1.3) + 0.15*c.Interest
	n := 1 + int(float64(cfg.MaxDocsPerConcept)*frac)
	// Fraction of mentions that are on-topic, coherent documents.
	relevantFrac := 0.1 + 0.85*math.Sqrt(c.Quality*c.Specificity)
	for d := 0; d < n; d++ {
		relevant := c.Topic >= 0 && rng.Float64() < relevantFrac
		topic := c.Topic
		if !relevant || topic < 0 {
			topic = rng.Intn(len(w.Topics))
		}
		// Ambiguous concepts split their coherent documents between
		// senses, which dilutes global clustering (paper §IV-C).
		if relevant && c.Ambiguous() && rng.Intn(2) == 0 {
			topic = c.SecondaryTopic
		}
		onTopic := relevant && topic == c.Topic
		repeat := 1 + rng.Intn(2)
		if onTopic {
			// Coherent documents are *about* the concept: several
			// mentions, each sentence dense in its context terms.
			repeat = 2 + rng.Intn(3)
		}
		text, _ := w.ComposeDoc(world.ComposeOptions{
			Topic:          topic,
			Sentences:      docSentences/2 + rng.Intn(docSentences),
			ContextDensity: 0.9,
		}, []world.Mention{{
			Concept:  c,
			Relevant: onTopic,
			Repeat:   repeat,
		}}, rng)
		emit(text, topic)
	}
}

// backgroundDocs generates n concept-free documents.
func backgroundDocs(w *world.World, n int, rng *rand.Rand, emit func(text string, topic int)) {
	for d := 0; d < n; d++ {
		topic := rng.Intn(len(w.Topics))
		text, _ := w.ComposeDoc(world.ComposeOptions{
			Topic:     topic,
			Sentences: docSentences/2 + rng.Intn(docSentences),
		}, nil, rng)
		emit(text, topic)
	}
}
