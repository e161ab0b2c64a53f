// Package relevance implements the paper's §IV-B: mining, for every concept
// c_i, its top m=100 relevant context keywords with confidence scores
//
//	relevantTerms_i = {(t_i1, s_i1), ..., (t_im, s_im)}
//
// from three resources — search-engine result snippets, the Prisma
// query-refinement tool, and related query suggestions — and then estimating
// the relevance of a concept in a *new* context from co-occurrences of the
// pre-mined keywords with the concept in that context.
//
// All mined terms are stemmed, lower-cased and stripped of surrounding
// punctuation, exactly as the paper notes.
package relevance

import (
	"sort"
	"sync"

	"contextrank/internal/corpus"
	"contextrank/internal/match"
	"contextrank/internal/par"
	"contextrank/internal/searchsim"
)

// Resource selects the mining source.
type Resource int

const (
	// Snippets mines the snippets of the first hundred search results —
	// the paper's best resource (Table IV).
	Snippets Resource = iota
	// Prisma mines the ≤20 feedback terms of the Prisma tool.
	Prisma
	// Suggestions mines up to 300 related query suggestions with their
	// frequencies, scored Σ ln(query_freq) · idf(term).
	Suggestions
	// NumResources is the number of Resource values (for dense per-resource
	// tables).
	NumResources
)

// String names the resource.
func (r Resource) String() string {
	switch r {
	case Snippets:
		return "snippets"
	case Prisma:
		return "prisma"
	default:
		return "suggestions"
	}
}

// TopM is the paper's keyword budget per concept ("top m (100 used in
// practice) relevant context keywords").
const TopM = 100

// SnippetDepth is how many result snippets are mined ("the snippets
// retrieved for the first hundred results").
const SnippetDepth = 100

// Miner mines relevant keywords for concepts on interned ids (interned.go):
// term facts and stems are precomputed per vocabulary id once, and
// per-concept mining accumulates into pooled id-keyed scratch. The string
// miners this path replaced live in oracle_test.go, where the differential
// tests pin it to them bit for bit.
type Miner struct {
	engine    *searchsim.Engine
	prisma    *searchsim.Prisma
	suggestor *searchsim.Suggestor
	tableOnce sync.Once
	tbl       *termTable
	scratch   sync.Pool // *mineScratch
}

// NewMiner builds a miner over the three resources; p or s may be nil if
// that Resource will not be mined. The per-id fact tables are built once, on
// first Mine, over the vocabulary as it stands then: terms the engine
// ingests later are skipped by the miners (countIDs), not scored.
func NewMiner(e *searchsim.Engine, p *searchsim.Prisma, s *searchsim.Suggestor) *Miner {
	return &Miner{engine: e, prisma: p, suggestor: s}
}

// Mine returns the concept's relevant keywords from the chosen resource:
// up to TopM stemmed terms with confidence scores, sorted decreasing.
// The concept's own terms are excluded (they trivially co-occur).
func (mn *Miner) Mine(concept string, r Resource) (v corpus.Vector) {
	mn.mine(concept, r, func(top []Keyword) { v = resolve(mn.Dict(), top) })
	return v
}

// Dict returns the miner's stem dictionary, which every store it builds
// shares: the stems of its vocabularies as they stood at the first Mine.
func (mn *Miner) Dict() *match.Vocab { return mn.table().stems }

// MaxDocFrac drops candidate keywords that occur in more than this fraction
// of the corpus: such terms co-occur with everything and carry no
// concept-specific relevance signal (they behave like corpus-level
// stop-words).
const MaxDocFrac = 0.15

// Store holds pre-mined relevant keywords for a concept inventory — the
// offline product that the production framework packs into memory (§VI).
// Keywords are (stem id, weight) pairs over one stem dictionary, a mined
// store's miner's; context scoring marks the same ids (Ctx, context.go).
type Store struct {
	dict     *match.Vocab         // stem string <-> id; read-only while the store lives
	keywords map[string][]Keyword // concept -> keywords sorted as Mine's, at exactly their length
}

// Keyword is one mined keyword: a stem id and its confidence score.
type Keyword struct {
	Stem   uint32
	Weight float64
}

// BuildStore mines all concepts with the given resource, fanning the
// per-concept mining across GOMAXPROCS workers: it is the slowest offline
// step (one search + snippet pass per concept) and each concept is
// independent. Results are collected in concept order, so the store is
// bit-identical regardless of GOMAXPROCS or scheduling. Each concept's
// keywords are copied out of the miner's scratch at exactly their length.
func BuildStore(mn *Miner, concepts []string, r Resource) *Store {
	kws := par.Map(0, len(concepts), func(i int) (ks []Keyword) {
		mn.mine(concepts[i], r, func(top []Keyword) { ks = append(make([]Keyword, 0, len(top)), top...) })
		return ks
	})
	s := &Store{dict: mn.Dict(), keywords: make(map[string][]Keyword, len(concepts))}
	for i, c := range concepts {
		s.keywords[c] = kws[i]
	}
	return s
}

// NewStore wraps pre-computed vectors, interning their terms into a
// dictionary of the store's own. The product mines its stores with
// BuildStore; NewStore is how the framework, serve and example tests build
// a store with known keywords to pack.
func NewStore(terms map[string]corpus.Vector) *Store {
	s := &Store{dict: match.NewVocab(), keywords: make(map[string][]Keyword, len(terms))}
	for c, v := range terms {
		ks := make([]Keyword, len(v))
		for i, e := range v {
			ks[i] = Keyword{Stem: s.dict.Intern(e.Term), Weight: e.Weight}
		}
		s.keywords[c] = ks
	}
	return s
}

// Dict returns the stem dictionary the store's keyword ids index: for a
// mined store, its miner's (Miner.Dict).
func (s *Store) Dict() *match.Vocab { return s.dict }

// Keywords returns a concept's keywords, sorted as Mine's; read-only.
func (s *Store) Keywords(concept string) []Keyword { return s.keywords[concept] }

// Concepts returns the stored concept names, sorted.
func (s *Store) Concepts() []string {
	out := make([]string, 0, len(s.keywords))
	for c := range s.keywords {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

// Summation returns the sum of a concept's relevant-keyword scores — the
// Table II statistic that separates specific concepts (large summations)
// from low-quality ones (small summations).
func (s *Store) Summation(concept string) float64 {
	sum := 0.0
	for _, k := range s.keywords[concept] {
		sum += k.Weight
	}
	return sum
}

// LocalRadius is the byte radius of the local context used to score a
// specific mention: the paper estimates relevance from "co-occurrences of
// the pre-mined keywords and the given concept in the context", i.e. the
// text surrounding the occurrence, not the whole document.
const LocalRadius = 300

// LocalWindow is the local context of a mention at byte pos: LocalRadius
// bytes on each side, clamped to the text and widened to whitespace so no
// word is cut; the window is text[lo:hi]. The dataset join scores a
// mention at its position and the runtime a detection at its first byte,
// so both sides rank from the same context.
func LocalWindow(text string, pos int) (lo, hi int) {
	lo = pos - LocalRadius
	if lo < 0 {
		lo = 0
	}
	hi = pos + LocalRadius
	if hi > len(text) {
		hi = len(text)
	}
	for lo > 0 && text[lo-1] != ' ' && text[lo-1] != '\n' {
		lo--
	}
	for hi < len(text) && text[hi] != ' ' && text[hi] != '\n' {
		hi++
	}
	return lo, hi
}
