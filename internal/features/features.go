// Package features implements the paper's interestingness feature space
// (Table I, after feature selection):
//
//	1 freq_exact              queries exactly equal to the concept
//	2 freq_phrase_contained   queries containing the concept as a phrase
//	3 unit_score              mutual information of the concept's terms
//	4 searchengine_phrase     result count of the concept as a phrase query
//	5 concept_size            number of terms
//	6 number_of_chars         number of characters
//	7 subconcepts             multi-term sub-units with score > 0.25
//	8 high_level_type         taxonomy type, if editorially listed
//	9 wiki_word_count         Wikipedia article length (0 if absent)
//
// Count-valued features are log-transformed (they are heavy-tailed in any
// real query log); the categorical high_level_type is one-hot expanded for
// the SVM, and feature groups can be masked for the Table III ablations.
package features

import (
	"math"
	"strings"
	"sync"
	"unicode/utf8"

	"contextrank/internal/par"
	"contextrank/internal/querylog"
	"contextrank/internal/searchsim"
	"contextrank/internal/taxonomy"
	"contextrank/internal/units"
	"contextrank/internal/wiki"
	"contextrank/internal/world"
)

// Group identifies the feature groups of Table III's ablation study.
type Group int

const (
	// GroupQueryLogs covers features 1-3 (search engine query logs).
	GroupQueryLogs Group = iota
	// GroupSearchResults covers feature 4 (search engine result pages).
	GroupSearchResults
	// GroupTextBased covers features 5-7 (simple text analysis).
	GroupTextBased
	// GroupTaxonomy covers feature 8.
	GroupTaxonomy
	// GroupOther covers feature 9 (Wikipedia).
	GroupOther
	// NumGroups is the number of feature groups.
	NumGroups
)

// String names the group as in Table III.
func (g Group) String() string {
	switch g {
	case GroupQueryLogs:
		return "Query Logs"
	case GroupSearchResults:
		return "Search Results"
	case GroupTextBased:
		return "Text Based"
	case GroupTaxonomy:
		return "Taxonomy Based"
	case GroupOther:
		return "Other"
	}
	return "?"
}

// AllGroups returns the full group set.
func AllGroups() map[Group]bool {
	m := make(map[Group]bool, NumGroups)
	for g := Group(0); g < NumGroups; g++ {
		m[g] = true
	}
	return m
}

// Without returns AllGroups minus g (for leave-one-group-out ablations).
func Without(g Group) map[Group]bool {
	m := AllGroups()
	delete(m, g)
	return m
}

// SubconceptMinScore is the unit-score threshold of feature 7 ("have a unit
// score of larger than 0.25").
const SubconceptMinScore = 0.25

// Fields holds the nine logical feature values for one concept — the
// pre-computed static record the production framework quantizes (§VI).
type Fields struct {
	FreqExact           float64 // log1p(freq)
	FreqPhraseContained float64 // log1p(freq)
	UnitScore           float64
	SearchEnginePhrase  float64 // log1p(result count)
	ConceptSize         float64
	NumberOfChars       float64
	Subconcepts         float64
	HighLevelType       world.EntityType
	WikiWordCount       float64 // log1p(words)
}

// NumEntityTypes is the one-hot width of HighLevelType (TypeNone..TypeAnimal).
const NumEntityTypes = 7

// Dim returns the expanded vector length for a group mask.
func Dim(include map[Group]bool) int {
	d := 0
	if include[GroupQueryLogs] {
		d += 3
	}
	if include[GroupSearchResults] {
		d++
	}
	if include[GroupTextBased] {
		d += 3
	}
	if include[GroupTaxonomy] {
		d += NumEntityTypes
	}
	if include[GroupOther] {
		d++
	}
	return d
}

// Expand produces the numeric feature vector for the masked groups, with
// HighLevelType one-hot encoded. The layout is stable for a given mask.
func (f Fields) Expand(include map[Group]bool) []float64 {
	return f.AppendExpand(make([]float64, 0, Dim(include)), include)
}

// AppendExpand is Expand appending into dst (pass a pooled dst[:0] to make
// the per-detection feature expansion allocation-free on the serving path).
func (f Fields) AppendExpand(dst []float64, include map[Group]bool) []float64 {
	out := dst
	if include[GroupQueryLogs] {
		out = append(out, f.FreqExact, f.FreqPhraseContained, f.UnitScore)
	}
	if include[GroupSearchResults] {
		out = append(out, f.SearchEnginePhrase)
	}
	if include[GroupTextBased] {
		out = append(out, f.ConceptSize, f.NumberOfChars, f.Subconcepts)
	}
	if include[GroupTaxonomy] {
		hot := len(out)
		for i := 0; i < NumEntityTypes; i++ {
			out = append(out, 0)
		}
		if int(f.HighLevelType) >= 0 && int(f.HighLevelType) < NumEntityTypes {
			out[hot+int(f.HighLevelType)] = 1
		}
	}
	if include[GroupOther] {
		out = append(out, f.WikiWordCount)
	}
	return out
}

// Extractor computes Fields from the mined resources. It holds no mutable
// state — every resource is read-only after its build — so one Extractor is
// safe for any number of concurrent callers.
type Extractor struct {
	log    *querylog.Log
	units  *units.Set
	engine *searchsim.Engine
	wiki   *wiki.Encyclopedia
	dict   *taxonomy.Dictionary
}

// NewExtractor wires the resources together. Any of them may be nil, zeroing
// the corresponding fields (useful for partial deployments and tests).
func NewExtractor(log *querylog.Log, us *units.Set, engine *searchsim.Engine, enc *wiki.Encyclopedia, dict *taxonomy.Dictionary) *Extractor {
	return &Extractor{log: log, units: us, engine: engine, wiki: enc, dict: dict}
}

// extractScratch is one worker's pooled term-split buffer: the concept is
// split on whitespace once per Fields call and the terms — substrings of the
// concept, no per-term copies — feed every term-shaped feature.
type extractScratch struct {
	terms []string
}

var extractPool = sync.Pool{New: func() any { return new(extractScratch) }}

// appendFields splits s into whitespace-separated fields appended to dst,
// with strings.Fields semantics. Fields alias s, so the split allocates
// nothing once dst has capacity. Inputs containing non-ASCII bytes fall back
// to strings.Fields (a multi-byte rune may be Unicode whitespace).
func appendFields(dst []string, s string) []string {
	for i := 0; i < len(s); i++ {
		if s[i] >= utf8.RuneSelf {
			return append(dst, strings.Fields(s)...)
		}
	}
	start := -1
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case ' ', '\t', '\n', '\v', '\f', '\r':
			if start >= 0 {
				dst = append(dst, s[start:i])
				start = -1
			}
		default:
			if start < 0 {
				start = i
			}
		}
	}
	if start >= 0 {
		dst = append(dst, s[start:])
	}
	return dst
}

// Fields computes the nine features for a concept phrase (normalized,
// lower-case form).
func (e *Extractor) Fields(concept string) Fields {
	sc := extractPool.Get().(*extractScratch)
	terms := appendFields(sc.terms[:0], concept)
	var f Fields
	if e.log != nil {
		f.FreqExact = math.Log1p(float64(e.log.FreqExact(concept)))
		f.FreqPhraseContained = math.Log1p(float64(e.log.FreqPhraseContainedTerms(terms)))
	}
	if e.units != nil {
		f.UnitScore = e.units.Score(concept)
		f.Subconcepts = float64(e.units.SubconceptCountTerms(terms, SubconceptMinScore))
	}
	if e.engine != nil {
		f.SearchEnginePhrase = math.Log1p(float64(e.engine.ResultCount(concept)))
	}
	f.ConceptSize = float64(countTerms(concept))
	f.NumberOfChars = float64(len(concept))
	if e.dict != nil {
		f.HighLevelType = e.dict.HighLevelType(concept)
	}
	if e.wiki != nil {
		f.WikiWordCount = math.Log1p(float64(e.wiki.WordCount(concept)))
	}
	sc.terms = terms[:0]
	extractPool.Put(sc)
	return f
}

// BatchFields extracts the feature records for a concept list, fanning the
// per-concept extraction across GOMAXPROCS workers. Results are in input
// order and bit-identical to a serial loop: each concept's record depends
// only on the read-only resources.
func (e *Extractor) BatchFields(concepts []string) []Fields {
	return par.Map(0, len(concepts), func(i int) Fields {
		return e.Fields(concepts[i])
	})
}

// BatchExtended is BatchFields for the eliminated candidate features.
func (e *Extractor) BatchExtended(concepts []string) []ExtendedFields {
	return par.Map(0, len(concepts), func(i int) ExtendedFields {
		return e.Extended(concepts[i])
	})
}

func countTerms(s string) int {
	n, in := 0, false
	for i := 0; i < len(s); i++ {
		if s[i] == ' ' {
			in = false
		} else if !in {
			in = true
			n++
		}
	}
	return n
}
