package searchsim

import (
	"math"
	"math/rand"

	"contextrank/internal/match"
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

// rawDoc is one generated-but-not-yet-indexed document: its words as ids
// into the build's token table, indexed by newBulkEngine. The corpus is
// never written as text: a generation shard composes each document through
// a tokenSink, straight into token ids.
type rawDoc struct {
	ids   []uint32
	topic int
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
// from rand.NewSource(par.Seed(cfg.Seed, i)) and composes each document
// straight into token ids (world.ComposeTo into a tokenSink, over a token
// table built once per call); the documents are then indexed and
// compressed into the engine's base segment by the bulk parallel pipeline
// (bulkindex.go), so every downstream miner queries compressed posting
// lists. Every stage is deterministic in content, so the
// corpus and index are bit-identical regardless of GOMAXPROCS or
// scheduling. The engine is live: Add, Commit and Compact keep working on it.
func BuildCorpus(w *world.World, cfg CorpusConfig) *Engine {
	cfg = cfg.withDefaults()
	tab := newTokenTable(w)
	shards := par.Map(0, numShards(w), func(i int) []rawDoc {
		sink := tokenSink{tab: tab}
		var docs []rawDoc
		generateShard(w, cfg, i, func(topic int, opts world.ComposeOptions, mentions []world.Mention, rng *rand.Rand) {
			w.ComposeTo(&sink, opts, mentions, rng)
			// Until the shard is done, a document's ids only record where
			// it ends: sink.ids still grows.
			docs = append(docs, rawDoc{ids: sink.ids, topic: topic})
		})
		start := 0
		for j := range docs {
			end := len(docs[j].ids)
			docs[j].ids = sink.ids[start:end:end]
			start = end
		}
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

	return newBulkEngine(tab.tokens, docs)
}

// tokenTable holds every distinct word the composer can write, tokenized
// once by textproc.WordTokens into one reused buffer, so a generation shard
// writes a word's tokens with a slice copy. Its tokens are interned in
// tokens, which newBulkEngine reads the documents' ids against.
type tokenTable struct {
	tokens *match.Vocab
	ids    []uint32 // every word's token ids, end to end
	off    []int32  // word k's token ids are ids[off[k]:off[k+1]]
	// w.Vocab[i] is word i; the other words the composer writes are
	// numbered here: world.Connectives[i] is word conn[i], concept c's name
	// word name[c.ID] and its ContextTerms[j] word ctx[ctxOff[c.ID]+j].
	conn, name, ctx []int32
	ctxOff          []int32
}

func newTokenTable(w *world.World) *tokenTable {
	tab := &tokenTable{tokens: match.NewVocab(), off: []int32{0}}
	seen := make(map[string]int32, len(w.Vocab))
	var toks []textproc.Token
	add := func(word string) int32 {
		k := int32(len(tab.off) - 1)
		toks = textproc.WordTokens(word, toks[:0])
		for i := range toks {
			tab.ids = append(tab.ids, tab.tokens.Intern(toks[i].Norm))
		}
		tab.off = append(tab.off, int32(len(tab.ids)))
		if _, ok := seen[word]; !ok {
			seen[word] = k
		}
		return k
	}
	number := func(word string) int32 {
		if k, ok := seen[word]; ok {
			return k
		}
		return add(word)
	}
	for _, v := range w.Vocab {
		add(v)
	}
	for _, c := range world.Connectives {
		tab.conn = append(tab.conn, number(c))
	}
	for i := range w.Concepts {
		c := &w.Concepts[i]
		tab.name = append(tab.name, number(c.Name))
		tab.ctxOff = append(tab.ctxOff, int32(len(tab.ctx)))
		for _, t := range c.ContextTerms {
			tab.ctx = append(tab.ctx, number(t))
		}
	}
	return tab
}

// tokenSink is the world.Sink a generation shard composes with: it appends
// each written word's token ids to ids, the shard's documents end to end.
// Case and punctuation are the text's alone, so sentences leave no trace.
type tokenSink struct {
	tab *tokenTable
	ids []uint32
}

func (s *tokenSink) word(k int32) {
	s.ids = append(s.ids, s.tab.ids[s.tab.off[k]:s.tab.off[k+1]]...)
}

func (s *tokenSink) BeginSentence(int)                       {}
func (s *tokenSink) EndSentence()                            {}
func (s *tokenSink) Term(id int, _ bool)                     { s.word(int32(id)) }
func (s *tokenSink) Connective(i int, _ bool)                { s.word(s.tab.conn[i]) }
func (s *tokenSink) Mention(_ int, c *world.Concept, _ bool) { s.word(s.tab.name[c.ID]) }
func (s *tokenSink) ContextTerm(c *world.Concept, i int, _ bool) {
	s.word(s.tab.ctx[int(s.tab.ctxOff[c.ID])+i])
}

// numShards is the number of generation shards: one per concept, then the
// background documents in runs of backgroundShardSize.
func numShards(w *world.World) int {
	return len(w.Concepts) + (backgroundPerConcept*len(w.Concepts)+backgroundShardSize-1)/backgroundShardSize
}

// composeFunc composes one corpus document, indexed under topic, from the
// options and mentions generateShard drew, drawing its words from rng.
type composeFunc func(topic int, opts world.ComposeOptions, mentions []world.Mention, rng *rand.Rand)

// generateShard plans the documents of generation shard i and hands each to
// compose in document order.
func generateShard(w *world.World, cfg CorpusConfig, i int, compose composeFunc) {
	rng := rand.New(rand.NewSource(par.Seed(cfg.Seed, i)))
	if i < len(w.Concepts) {
		conceptDocs(w, &w.Concepts[i], cfg, rng, compose)
		return
	}
	lo := (i - len(w.Concepts)) * backgroundShardSize
	backgroundDocs(w, min(backgroundShardSize, backgroundPerConcept*len(w.Concepts)-lo), rng, compose)
}

// conceptDocs plans every corpus document mentioning one concept.
func conceptDocs(w *world.World, c *world.Concept, cfg CorpusConfig, rng *rand.Rand, compose composeFunc) {
	// Document count: monotone in generality (feature 4 needs general
	// concepts to return more results) but with a floor, so specific
	// concepts still have a deep snippet pool — the Table II contrast
	// comes from *clustering*, not from result starvation.
	frac := 0.5 + float64(0.35*math.Pow(1-c.Specificity, 1.3)) + float64(0.15*c.Interest)
	n := 1 + int(float64(cfg.MaxDocsPerConcept)*frac)
	// Fraction of mentions that are on-topic, coherent documents.
	relevantFrac := 0.1 + float64(0.85*math.Sqrt(c.Quality*c.Specificity))
	mentions := make([]world.Mention, 1)
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
		mentions[0] = world.Mention{Concept: c, Relevant: onTopic, Repeat: repeat}
		compose(topic, world.ComposeOptions{
			Topic:          topic,
			Sentences:      docSentences/2 + rng.Intn(docSentences),
			ContextDensity: 0.9,
		}, mentions, rng)
	}
}

// backgroundDocs plans n concept-free documents.
func backgroundDocs(w *world.World, n int, rng *rand.Rand, compose composeFunc) {
	for d := 0; d < n; d++ {
		topic := rng.Intn(len(w.Topics))
		compose(topic, world.ComposeOptions{
			Topic:     topic,
			Sentences: docSentences/2 + rng.Intn(docSentences),
		}, nil, rng)
	}
}
