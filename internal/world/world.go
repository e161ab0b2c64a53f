// Package world implements the synthetic world model that stands in for the
// paper's proprietary resources (Yahoo! query logs, web corpus, news
// traffic, click instrumentation).
//
// The world is a generative model with explicit latent variables per
// concept — interestingness, specificity, quality and topic affinity — from
// which every other resource is derived:
//
//   - the query log (internal/querylog) emits queries whose frequencies are
//     driven by concept interestingness;
//   - the web corpus (internal/searchsim) contains documents whose count and
//     topical coherence are driven by specificity and quality;
//   - news stories (internal/newsgen) embed concepts relevantly or
//     irrelevantly, driven by topic affinity;
//   - clicks (internal/clicksim) are sampled from a latent CTR that combines
//     interestingness and contextual relevance.
//
// Because the features the paper mines (query frequencies, result counts,
// Wikipedia lengths, ...) are *partial, noisy observations* of these latent
// variables, the learning problem the ranker faces has the same structure as
// the production problem, even though every byte of data is synthetic.
package world

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"unicode"
	"unicode/utf8"
)

// EntityType is the high-level taxonomy type of a named entity. Abstract
// concepts carry TypeNone.
type EntityType int

const (
	// TypeNone marks abstract concepts that are not in the editorial
	// dictionaries (they are detected via query-log units instead).
	TypeNone EntityType = iota
	TypePerson
	TypePlace
	TypeOrganization
	TypeProduct
	TypeEvent
	TypeAnimal
	numEntityTypes
)

// String returns the lower-case name of the type.
func (t EntityType) String() string {
	switch t {
	case TypePerson:
		return "person"
	case TypePlace:
		return "place"
	case TypeOrganization:
		return "organization"
	case TypeProduct:
		return "product"
	case TypeEvent:
		return "event"
	case TypeAnimal:
		return "animal"
	default:
		return "none"
	}
}

// Subtypes per major type, mirroring the paper's "each of these major types
// contains a large number of subtypes, e.g. actor, musician, scientist".
var subtypes = map[EntityType][]string{
	TypePerson:       {"actor", "musician", "scientist", "politician", "athlete", "author"},
	TypePlace:        {"city", "country", "state", "landmark", "region"},
	TypeOrganization: {"company", "agency", "team", "university", "party"},
	TypeProduct:      {"gadget", "vehicle", "software", "medicine", "game"},
	TypeEvent:        {"election", "war", "festival", "disaster", "summit"},
	TypeAnimal:       {"mammal", "bird", "reptile", "fish", "insect"},
}

// Concept is a keyword phrase with its latent ground-truth attributes.
type Concept struct {
	// ID indexes the concept in World.Concepts.
	ID int
	// Name is the space-separated lower-case phrase ("global warming").
	Name string
	// Terms are the individual terms of Name.
	Terms []string
	// Type is the taxonomy type; TypeNone for abstract concepts.
	Type EntityType
	// Subtype refines Type ("actor", "city", ...); empty for TypeNone.
	Subtype string
	// Interest is the latent interestingness in [0,1]: how appealing the
	// concept is to the general user base, independent of context.
	Interest float64
	// Specificity in [0,1]: 1 = very specific (few documents mention it,
	// strongly clustered contexts), 0 = very general.
	Specificity float64
	// Quality in [0,1]: low-quality phrases ("my favorite") score near 0.
	Quality float64
	// Topic is the primary topic index; -1 for topicless low-quality phrases.
	Topic int
	// SecondaryTopic is a second sense for ambiguous concepts; -1 otherwise.
	SecondaryTopic int
	// ContextTerms are the distinctive terms of contexts in which the
	// concept is relevant; relevance miners should rediscover (a superset
	// of) these. Sorted for determinism.
	ContextTerms []string
	// QueryRefiners are the extra terms users type alongside the concept in
	// queries. They overlap ContextTerms only partially (refinerOverlap),
	// modelling the gap between query and document vocabulary.
	QueryRefiners []string
}

// LowQuality reports whether the concept is one of the injected low-quality
// general phrases.
func (c *Concept) LowQuality() bool { return c.Quality < 0.25 }

// Ambiguous reports whether the concept has two senses.
func (c *Concept) Ambiguous() bool { return c.SecondaryTopic >= 0 }

// Topic is a distribution over vocabulary term indexes.
type Topic struct {
	// ID indexes the topic in World.Topics.
	ID int
	// TermIDs are the vocabulary indexes this topic can emit.
	TermIDs []int
	// cum is the cumulative weight array aligned with TermIDs.
	cum []float64
	// guide is the cutpoint table of Chen and Asau's inverse-CDF method:
	// guide[j] is the first index whose cum reaches j/len(guide) of the
	// total, so a draw x starts its search at guide[int(x*scale)].
	guide []int32
	scale float64 // len(guide) / total weight
}

// Config parameterizes world generation. Zero values select defaults that
// produce a world roughly matching the paper's data volume (hundreds of
// stories, thousands of concepts) at laptop scale.
type Config struct {
	Seed        int64
	VocabSize   int // distinct terms; default 6000
	NumTopics   int // default 24
	NumConcepts int // default 1200

	// AmbiguousFraction is the fraction of concepts with two senses.
	AmbiguousFraction float64 // default 0.05
}

// The world's fixed generation parameters.
const (
	// multiTermFraction is the fraction of concepts with 2-3 terms.
	multiTermFraction float64 = 0.55
	// namedEntityFraction is the fraction of concepts placed in the
	// editorial dictionaries with a taxonomy type.
	namedEntityFraction float64 = 0.45
	// lowQualityFraction is the fraction of injected low-quality phrases.
	lowQualityFraction float64 = 0.08
	// contextTermCount is how many distinctive context terms each concept
	// has: documents about a concept draw on a broad vocabulary, which is
	// exactly why Prisma's 20-feedback-term cap costs it coverage (paper
	// Table IV).
	contextTermCount = 80
	// refinerOverlap is the fraction of a concept's query refiners drawn
	// from its document context terms; the rest are other topical terms.
	// Query vocabulary only partially overlaps document vocabulary, which
	// is why suggestion-mined keywords cover contexts worse than snippets.
	refinerOverlap float64 = 0.3
	// nicheFraction is the fraction of a concept's context terms that are
	// signature vocabulary unique to the concept (think "methicillin" for a
	// medical entity): words that appear essentially nowhere else, so a
	// keyword pack that captures them tracks the concept's contextual
	// presence precisely.
	nicheFraction float64 = 0.6
)

func (c Config) withDefaults() Config {
	if c.VocabSize == 0 {
		c.VocabSize = 6000
	}
	if c.NumTopics == 0 {
		c.NumTopics = 24
	}
	if c.NumConcepts == 0 {
		c.NumConcepts = 1200
	}
	if c.AmbiguousFraction == 0 {
		c.AmbiguousFraction = 0.05
	}
	return c
}

// World is the fully-generated synthetic world.
type World struct {
	Config   Config
	Vocab    []string
	Topics   []Topic
	Concepts []Concept
	// IntentVocab are query-only refinement words ("review", "buy",
	// "lyrics" analogues): they appear in search queries but essentially
	// never in edited prose, which is why suggestion-mined keywords match
	// documents worse than snippet-mined ones.
	IntentVocab []string

	byName map[string]*Concept
}

// lowQualityPhrases mirror the paper's examples of "very general or low
// quality concepts (such as 'my favorite', 'the other', 'what is
// happening')" that sneak into the candidate set via high unit scores.
var lowQualityPhrases = []string{
	"my favorite", "the other", "what is happening", "last week",
	"first time", "a lot", "more than", "the best", "every day",
	"this year", "next step", "other side", "long time", "good news",
	"real thing", "big deal", "right now", "old one",
}

// New generates a world from cfg. Generation is deterministic in cfg.Seed.
func New(cfg Config) *World {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	w := &World{Config: cfg}
	w.generateVocab(rng)
	w.generateIntentVocab(rng)
	w.generateTopics(rng)
	w.generateConcepts(rng)
	w.byName = make(map[string]*Concept, len(w.Concepts))
	for i := range w.Concepts {
		w.byName[w.Concepts[i].Name] = &w.Concepts[i]
	}
	return w
}

// ConceptByName returns the concept with the given name, or nil.
func (w *World) ConceptByName(name string) *Concept { return w.byName[name] }

// syllable inventories for synthetic word generation.
var (
	onsets = []string{"b", "c", "d", "f", "g", "h", "j", "k", "l", "m", "n", "p", "r", "s", "t", "v", "w", "z", "br", "ch", "cl", "dr", "fl", "gr", "kr", "pl", "pr", "sh", "sk", "sl", "st", "th", "tr"}
	nuclei = []string{"a", "e", "i", "o", "u", "ai", "ea", "ee", "io", "oa", "ou"}
	codas  = []string{"", "", "", "n", "r", "s", "t", "l", "m", "k", "nd", "st", "rn"}
)

func makeWord(rng *rand.Rand, syllables int) string {
	var b strings.Builder
	for s := 0; s < syllables; s++ {
		b.WriteString(onsets[rng.Intn(len(onsets))])
		b.WriteString(nuclei[rng.Intn(len(nuclei))])
		if s == syllables-1 {
			b.WriteString(codas[rng.Intn(len(codas))])
		}
	}
	return b.String()
}

// commonFillerWords are the non-stop-word constituents of the low-quality
// phrases. They are planted in the shared (cross-topic) vocabulary region
// so that — as in real English — they are frequent, low-idf words that the
// tf·idf machinery correctly treats as undistinctive.
var commonFillerWords = []string{
	"favorite", "happening", "week", "time", "lot", "best", "day",
	"year", "step", "side", "long", "news", "real", "thing", "big",
	"deal", "old", "good",
}

func (w *World) generateVocab(rng *rand.Rand) {
	seen := make(map[string]bool, w.Config.VocabSize)
	w.Vocab = make([]string, 0, w.Config.VocabSize)
	for len(w.Vocab) < w.Config.VocabSize {
		syl := 2 + rng.Intn(3)
		word := makeWord(rng, syl)
		if len(word) < 3 || seen[word] {
			continue
		}
		seen[word] = true
		w.Vocab = append(w.Vocab, word)
	}
	// Plant the filler words in the shared region (the tail of the
	// vocabulary, which every topic emits).
	for i, word := range commonFillerWords {
		if seen[word] {
			continue
		}
		idx := len(w.Vocab) - 1 - i
		if idx < 0 {
			break
		}
		seen[word] = true
		w.Vocab[idx] = word
	}
}

// generateIntentVocab creates the query-only refinement vocabulary.
func (w *World) generateIntentVocab(rng *rand.Rand) {
	seen := make(map[string]bool, len(w.Vocab))
	for _, v := range w.Vocab {
		seen[v] = true
	}
	for len(w.IntentVocab) < 60 {
		word := makeWord(rng, 2)
		if len(word) < 3 || seen[word] {
			continue
		}
		seen[word] = true
		w.IntentVocab = append(w.IntentVocab, word)
	}
}

func (w *World) generateTopics(rng *rand.Rand) {
	w.Topics = make([]Topic, w.Config.NumTopics)
	// Partition most of the vocabulary into topic cores; reserve a shared
	// tail of common terms every topic can emit.
	shared := w.Config.VocabSize / 6
	coreSize := (w.Config.VocabSize - shared) / w.Config.NumTopics
	perm := rng.Perm(w.Config.VocabSize - shared)
	for t := 0; t < w.Config.NumTopics; t++ {
		topic := Topic{ID: t}
		core := perm[t*coreSize : (t+1)*coreSize]
		topic.TermIDs = append(topic.TermIDs, core...)
		// Shared common terms (high frequency across topics).
		for s := 0; s < shared; s++ {
			topic.TermIDs = append(topic.TermIDs, w.Config.VocabSize-shared+s)
		}
		// Zipf-ish weights within the topic: core terms get a per-topic
		// random permutation of Zipf ranks; shared terms get boosted weight
		// so they behave like frequent function-ish words.
		weights := make([]float64, len(topic.TermIDs))
		order := rng.Perm(len(core))
		coreSum := 0.0
		for i := range core {
			// A flat-ish Zipf exponent: real topical vocabularies have no
			// dominant 20-term head, which is why narrow keyword packs
			// (Prisma's 20 feedback terms) cover contexts hit-or-miss while
			// 100-term snippet packs almost always connect (paper Table IV).
			weights[i] = 1.0 / math.Pow(float64(order[i]+2), 0.45)
			coreSum += weights[i]
		}
		// Shared common terms carry ~30% of the topic's probability mass so
		// documents stay topically distinctive.
		rawShared := make([]float64, len(topic.TermIDs)-len(core))
		rawSum := 0.0
		for i := range rawShared {
			rawShared[i] = 1.0 / float64(3+rng.Intn(12))
			rawSum += rawShared[i]
		}
		sharedScale := 0.0
		if rawSum > 0 {
			sharedScale = 0.43 * coreSum / rawSum // 0.43/1.43 ≈ 30% of total
		}
		for i := range rawShared {
			weights[len(core)+i] = rawShared[i] * sharedScale
		}
		topic.cum = make([]float64, len(weights))
		sum := 0.0
		for i, wt := range weights {
			sum += wt
			topic.cum[i] = sum
		}
		topic.buildGuide()
		w.Topics[t] = topic
	}
}

// SampleTerm draws one term from the topic's distribution.
func (w *World) SampleTerm(t *Topic, rng *rand.Rand) string {
	return w.Vocab[w.SampleTermID(t, rng)]
}

// SampleTermID is SampleTerm's draw as the term's index in w.Vocab.
func (w *World) SampleTermID(t *Topic, rng *rand.Rand) int {
	return t.TermIDs[t.search(rng.Float64()*t.cum[len(t.cum)-1])]
}

// buildGuide fills the topic's cutpoint table, one entry per term.
func (t *Topic) buildGuide() {
	n := len(t.cum)
	total := t.cum[n-1]
	t.guide = make([]int32, n)
	t.scale = float64(n) / total
	i := 0
	for j := range t.guide {
		lo := float64(j) / t.scale
		for i < n-1 && t.cum[i] < lo {
			i++
		}
		t.guide[j] = int32(i)
	}
}

// search returns sort.SearchFloat64s(t.cum, x), the first index whose
// cumulative weight reaches x, clamped to the last term. It starts at x's
// cutpoint and steps back while the entry before reaches x, then forward
// while the entry falls short of it: correct from any start, so rounding
// in x*scale costs a step, never an answer, and expected O(1).
func (t *Topic) search(x float64) int {
	j := int(x * t.scale)
	if j >= len(t.guide) {
		j = len(t.guide) - 1
	}
	i := int(t.guide[j])
	for i > 0 && t.cum[i-1] >= x {
		i--
	}
	for i < len(t.cum)-1 && t.cum[i] < x {
		i++
	}
	return i
}

func (w *World) generateConcepts(rng *rand.Rand) {
	n := w.Config.NumConcepts
	w.Concepts = make([]Concept, 0, n)
	usedNames := make(map[string]bool)
	// Niche signature words must not collide with each other or with the
	// topical vocabulary.
	usedNiche := make(map[string]bool, len(w.Vocab))
	for _, v := range w.Vocab {
		usedNiche[v] = true
	}

	numLowQ := int(float64(n) * lowQualityFraction)
	if numLowQ > len(lowQualityPhrases) {
		numLowQ = len(lowQualityPhrases)
	}

	// Low-quality general phrases: high unit frequency, no topic, tiny quality.
	for i := 0; i < numLowQ; i++ {
		name := lowQualityPhrases[i]
		usedNames[name] = true
		w.Concepts = append(w.Concepts, Concept{
			ID:             len(w.Concepts),
			Name:           name,
			Terms:          strings.Fields(name),
			Type:           TypeNone,
			Interest:       0.05 + float64(0.25*rng.Float64()),
			Specificity:    0.02 + float64(0.1*rng.Float64()),
			Quality:        0.02 + float64(0.15*rng.Float64()),
			Topic:          -1,
			SecondaryTopic: -1,
		})
	}

	for len(w.Concepts) < n {
		topic := rng.Intn(w.Config.NumTopics)
		t := &w.Topics[topic]
		numTerms := 1
		if rng.Float64() < multiTermFraction {
			numTerms = 2
			if rng.Float64() < 0.3 {
				numTerms = 3
			}
		}
		terms := make([]string, 0, numTerms)
		if numTerms == 1 {
			// Single-term concepts get a dedicated name word ("Obama",
			// "Cuba"): entity names are distinctive vocabulary, not common
			// topical words, so occurrences in text are deliberate mentions
			// rather than incidental prose.
			word := makeWord(rng, 2+rng.Intn(2))
			for len(word) < 4 || usedNiche[word] {
				word = makeWord(rng, 2+rng.Intn(2))
			}
			usedNiche[word] = true
			w.Vocab = append(w.Vocab, word)
			terms = append(terms, word)
		}
		for len(terms) < numTerms {
			term := w.SampleTerm(t, rng)
			dup := false
			for _, prev := range terms {
				if prev == term {
					dup = true
					break
				}
			}
			if !dup {
				terms = append(terms, term)
			}
		}
		name := strings.Join(terms, " ")
		if usedNames[name] {
			continue
		}
		usedNames[name] = true

		c := Concept{
			ID:             len(w.Concepts),
			Name:           name,
			Terms:          terms,
			Topic:          topic,
			SecondaryTopic: -1,
			// Interest: power-law so a few concepts are very hot.
			Interest: math.Pow(rng.Float64(), 2.2),
			// Multi-term concepts skew specific; single-term ones vary.
			Specificity: clamp01(0.25 + float64(0.5*rng.Float64()) + float64(0.15*float64(numTerms-1)) + float64(0.1*rng.NormFloat64())),
			Quality:     clamp01(0.5 + float64(0.4*rng.Float64()) + float64(0.1*rng.NormFloat64())),
		}
		if rng.Float64() < namedEntityFraction {
			typ := EntityType(1 + rng.Intn(int(numEntityTypes)-1))
			c.Type = typ
			subs := subtypes[typ]
			c.Subtype = subs[rng.Intn(len(subs))]
			// Persons and products tend to be clicked more (the taxonomy
			// feature carries signal because type correlates with interest).
			switch typ {
			case TypePerson, TypeProduct:
				c.Interest = clamp01(c.Interest + 0.15)
			case TypePlace:
				c.Interest = clamp01(c.Interest - 0.05)
			}
		}
		if rng.Float64() < w.Config.AmbiguousFraction {
			c.SecondaryTopic = rng.Intn(w.Config.NumTopics)
			if c.SecondaryTopic == topic {
				c.SecondaryTopic = (topic + 1) % w.Config.NumTopics
			}
		}
		// Context terms: the distinctive vocabulary that co-occurs with the
		// concept in relevant contexts — a mix of topical terms (shared
		// with everything else in the topic) and signature niche terms
		// unique to this concept. The niche share is what lets keyword
		// packs distinguish *this* concept's contextual presence from mere
		// topical overlap.
		nicheCount := int(nicheFraction * float64(contextTermCount))
		ct := make(map[string]bool)
		for len(ct) < nicheCount {
			word := makeWord(rng, 3+rng.Intn(2))
			if len(word) < 5 || usedNiche[word] {
				continue
			}
			usedNiche[word] = true
			ct[word] = true
			w.Vocab = append(w.Vocab, word)
		}
		for len(ct) < contextTermCount {
			term := w.SampleTerm(t, rng)
			inName := false
			for _, nt := range terms {
				if nt == term {
					inName = true
					break
				}
			}
			if !inName {
				ct[term] = true
			}
		}
		c.ContextTerms = make([]string, 0, len(ct))
		for term := range ct {
			c.ContextTerms = append(c.ContextTerms, term)
		}
		sort.Strings(c.ContextTerms)
		// Query refiners: a slice of the context terms plus query-intent
		// words ("review", "buy") that edited prose never uses.
		nOverlap := int(refinerOverlap * float64(len(c.ContextTerms)))
		perm := rng.Perm(len(c.ContextTerms))
		refiners := make(map[string]bool, len(c.ContextTerms))
		for _, pi := range perm[:nOverlap] {
			refiners[c.ContextTerms[pi]] = true
		}
		for len(refiners) < len(c.ContextTerms)/2 {
			refiners[w.IntentVocab[rng.Intn(len(w.IntentVocab))]] = true
		}
		c.QueryRefiners = make([]string, 0, len(refiners))
		for term := range refiners {
			c.QueryRefiners = append(c.QueryRefiners, term)
		}
		sort.Strings(c.QueryRefiners)
		w.Concepts = append(w.Concepts, c)
	}
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

// TitleCase renders a concept name with initial capitals, used when
// embedding named entities in generated prose: each word's first rune is
// upper-cased (a byte that is no valid rune is left as it is).
func TitleCase(name string) string {
	fields := strings.Fields(name)
	for i, f := range fields {
		if r, size := utf8.DecodeRuneInString(f); r != utf8.RuneError {
			fields[i] = string(unicode.ToUpper(r)) + f[size:]
		}
	}
	return strings.Join(fields, " ")
}
