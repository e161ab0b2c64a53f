// Package detect implements the Contextual Shortcuts entity-detection
// pipeline (paper §II): pre-processing (HTML parsing, tokenization),
// specialized detectors for the three entity classes — pattern-based
// entities, dictionary named entities and query-log concepts — followed by
// post-processing: collision detection between overlapping entities,
// disambiguation and filtering.
//
// The detection hot path is allocation-disciplined (DESIGN.md §10): each
// word of a document carries its ids in the matchers' vocabularies
// (WordIDs), the token-trie matchers of internal/match scan those ids with
// zero per-probe allocations, the pattern regexes run only on the trigger sites one byte
// scan finds, and every working buffer is pooled. Only the returned
// detection slice is freshly allocated — it never aliases pooled state.
package detect

import (
	"cmp"
	"slices"
	"sync"

	"contextrank/internal/match"
	"contextrank/internal/taxonomy"
	"contextrank/internal/textproc"
	"contextrank/internal/units"
)

// Kind is the entity class of a detection.
type Kind int

const (
	// KindPattern covers regular-expression entities (emails, URLs,
	// phones). They are "not subject to any relevance calculations [and]
	// always annotated".
	KindPattern Kind = iota
	// KindNamed covers dictionary named entities.
	KindNamed
	// KindConcept covers abstract concepts from query-log units.
	KindConcept
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindPattern:
		return "pattern"
	case KindNamed:
		return "named"
	default:
		return "concept"
	}
}

// Detection is one detected entity occurrence.
type Detection struct {
	// Text is the surface form as it appears in the document.
	Text string
	// Norm is the normalized (lower-case) phrase; for named entities and
	// concepts this is the dictionary/unit key.
	Norm string
	// Kind is the entity class.
	Kind Kind
	// PatternType is "email", "url" or "phone" for pattern entities.
	PatternType string
	// Entry is the disambiguated taxonomy entry for named entities. It
	// points into the dictionary's immutable entry table; treat it as
	// read-only.
	Entry *taxonomy.Entry
	// Unit is the matched query-log unit for concepts.
	Unit *units.Unit
	// Start and End are byte offsets into the *plain text* input.
	Start, End int
}

// MinUnitScore is the default floor on a unit's normalized score for the
// concept detector to annotate it. Every term in the query log is formally
// a unit, but the production system works with "a large, but finite set of
// entities ... plus a large subset of all the concepts available to us from
// query logs" — the subset with enough query traffic to be worth
// annotating. Without a floor the detector would fire on nearly every word.
const MinUnitScore = 0.35

// disambigRadius is the token radius of the context window handed to the
// dictionary disambiguator for each ambiguous named-entity match.
const disambigRadius = 25

// Pipeline is a configured detector. It is safe for concurrent use: all
// per-document state lives in pooled scratch buffers.
type Pipeline struct {
	dict         *taxonomy.Dictionary
	units        *units.Set
	minUnitScore float64
}

// New builds a pipeline whose concept detector keeps units scoring at
// least MinUnitScore. Either resource may be nil, disabling that detector
// (useful in tests and for pattern-only deployments).
func New(dict *taxonomy.Dictionary, unitSet *units.Set) *Pipeline {
	return &Pipeline{dict: dict, units: unitSet, minUnitScore: MinUnitScore}
}

// WordIDs is one word's ids in the pipeline's two matcher vocabularies:
// match.NoID where the word occurs in no pattern or the detector is off.
type WordIDs struct{ Dict, Unit uint32 }

// NoWord is the WordIDs of a word in neither vocabulary.
var NoWord = WordIDs{Dict: match.NoID, Unit: match.NoID}

// IDsOf returns the ids of the normalized word w: the per-word function
// Detect applies to every word token, and the one a caller that resolves
// words itself (the annotation runtime's word table) caches.
func (p *Pipeline) IDsOf(w string) WordIDs {
	ids := NoWord
	if p.dict != nil {
		ids.Dict = p.dict.Vocab().ID(w)
	}
	if p.units != nil {
		ids.Unit = p.units.Vocab().ID(w)
	}
	return ids
}

// Vocabs returns the vocabularies of the enabled detectors: IDsOf is NoWord
// for every word in none of them.
func (p *Pipeline) Vocabs() []*match.Vocab {
	var vs []*match.Vocab
	if p.dict != nil {
		vs = append(vs, p.dict.Vocab())
	}
	if p.units != nil {
		vs = append(vs, p.units.Vocab())
	}
	return vs
}

// scratch holds the per-document working set of DetectTokens: the word
// tokens' positions and their ids per matcher vocabulary, match buffers,
// the pattern trigger sites, the detection accumulator and the collision
// pass's buckets, bitset and runs — plus the tokens and ids of callers
// that come in through Detect. Pooled so a steady-state serving process
// performs no per-document buffer allocations.
type scratch struct {
	tokens  []textproc.Token
	ids     []WordIDs
	tokIdx  []int
	dictIDs []uint32
	unitIDs []uint32
	dms     []taxonomy.Match
	ums     []units.Match
	sites   []patternSite
	all     []Detection

	// The collision pass (resolveCollisions).
	pats   []spanKey // the pattern detections, in priority order
	counts []int32   // per (length, kind) bucket: size, then next free slot
	order  []int32   // the other detections' indexes, in priority order
	occ    []uint64  // occupancy bitset over the text's bytes
	kept   []bool    // per detection: survived
	runs   []run     // the input's start-ordered runs
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// Detect runs the full pipeline over plain text: it tokenizes into pooled
// scratch, looks each word token up with IDsOf, and hands both to
// DetectTokens.
//
//kw:hotpath
func (p *Pipeline) Detect(text string) []Detection {
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	sc.tokens = textproc.TokenizeInto(text, sc.tokens[:0]) //kwlint:ignore hotpath — token normalization (ToLower of mixed-case tokens) is the documented per-document budget
	sc.ids = sc.ids[:0]
	for i := range sc.tokens {
		ids := NoWord
		if t := &sc.tokens[i]; t.Kind != textproc.Punct && t.Norm != "" {
			ids = p.IDsOf(t.Norm)
		}
		sc.ids = append(sc.ids, ids)
	}
	return p.DetectTokens(nil, text, sc.tokens, sc.ids)
}

// DetectTokens is Detect for a caller that has already tokenized text
// (tokens must be textproc.TokenizeInto's output for exactly this text) and
// looked its words up: ids[i] is IDsOf(tokens[i].Norm) for every word token
// (punctuation entries are not read). The annotation runtime shares one
// tokenization and one word lookup between the stemmer and the detectors
// this way. tokens and ids are only read. The detections are appended
// to dst: nil gets a fresh slice of exactly their number, a caller that
// copies out what it keeps passes a buffer it reuses. Beyond dst the result
// aliases nothing the caller does not own — never the pooled scratch.
//
//kw:hotpath
//kw:fresh
func (p *Pipeline) DetectTokens(dst []Detection, text string, tokens []textproc.Token, ids []WordIDs) []Detection {
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)

	// Word-token view for the phrase scanners — each vocabulary's ids, with
	// a mapping back to the token slice so byte offsets survive.
	sc.tokIdx, sc.dictIDs, sc.unitIDs = sc.tokIdx[:0], sc.dictIDs[:0], sc.unitIDs[:0]
	for i := range tokens {
		t := &tokens[i]
		if t.Kind != textproc.Punct && t.Norm != "" {
			sc.tokIdx = append(sc.tokIdx, i)
			sc.dictIDs = append(sc.dictIDs, ids[i].Dict)
			sc.unitIDs = append(sc.unitIDs, ids[i].Unit)
		}
	}

	sc.sites = appendPatternSites(sc.sites[:0], text)
	all := appendPatternDetections(sc.all[:0], text, sc.sites) //kwlint:ignore hotpath — regex pattern detection is budgeted in BenchmarkDetect; see DESIGN.md §10

	if p.dict != nil {
		sc.dms = p.dict.FindInIDs(sc.dictIDs, sc.dms[:0])
		for _, m := range sc.dms {
			entry := p.dict.DisambiguateIDs(m, idWindow(sc.dictIDs, m.Start, m.End, disambigRadius))
			first, last := &tokens[sc.tokIdx[m.Start]], &tokens[sc.tokIdx[m.End-1]]
			all = append(all, Detection{
				Text:  text[first.Start:last.End],
				Norm:  m.Phrase,
				Kind:  KindNamed,
				Entry: entry,
				Start: first.Start,
				End:   last.End,
			})
		}
	}

	if p.units != nil {
		sc.ums = p.units.FindInIDs(sc.unitIDs, sc.ums[:0])
		for _, m := range sc.ums {
			if m.Unit.Score < p.minUnitScore {
				continue
			}
			first, last := &tokens[sc.tokIdx[m.Start]], &tokens[sc.tokIdx[m.End-1]]
			all = append(all, Detection{
				Text:  text[first.Start:last.End],
				Norm:  m.Unit.Text,
				Kind:  KindConcept,
				Unit:  m.Unit,
				Start: first.Start,
				End:   last.End,
			})
		}
	}

	all = filter(all)
	sc.all = all[:0] // return the (possibly grown) accumulator to the pool
	return resolveCollisions(sc, dst, all)
}

// idWindow returns the interned ids within radius tokens of [start,end).
func idWindow(ids []uint32, start, end, radius int) []uint32 {
	lo := start - radius
	if lo < 0 {
		lo = 0
	}
	hi := end + radius
	if hi > len(ids) {
		hi = len(ids)
	}
	return ids[lo:hi]
}

// filter drops a concept whose norm is one byte or whose unit is stop words
// only; a number-only unit such as "2008" passes. Named and pattern
// entities pass through (editorial dictionaries are pre-vetted).
//
// Ownership contract: filter compacts ds in place (writing through ds[:0])
// and returns the shortened slice. The caller must exclusively own ds's
// backing array — passing a slice that shares its array with live data
// would clobber that data. Detect calls it on the pooled accumulator it
// owns; see TestFilterCompactsInPlace / TestDetectResultsDoNotAliasScratch.
func filter(ds []Detection) []Detection {
	out := ds[:0]
	for _, d := range ds {
		if d.Kind == KindConcept {
			if len(d.Norm) <= 1 || d.Unit.StopOnly {
				continue
			}
		}
		out = append(out, d)
	}
	return out
}

// spanKey is the part of a Detection the collision order compares.
type spanKey struct {
	start, end int
	kind       Kind
	idx        int // the Detection's position in the input
}

// comparePriority orders keys by collision priority: pattern entities first
// (always annotated), then longer spans, then named entities over concepts,
// then earlier start. Only an email and a URL matched over one span tie on
// all of those; the input position, where emails precede URLs, decides
// between them, so the order is total.
func comparePriority(a, b spanKey) int {
	return cmp.Or(
		cmp.Compare(min(a.kind, KindNamed), min(b.kind, KindNamed)), // KindPattern, the least Kind, or not
		cmp.Compare(b.end-b.start, a.end-a.start),
		cmp.Compare(a.kind, b.kind),
		cmp.Compare(a.start, b.start),
		cmp.Compare(a.idx, b.idx))
}

// run is a stretch ds[next:end] of the collision pass's input whose starts
// never decrease; next advances over its survivors as they are emitted.
type run struct{ next, end int }

// resolveCollisions appends to dst the detections of ds whose spans overlap
// no detection before them in comparePriority order, sorted by start.
//
// Every span is non-empty, and the detections of each non-pattern kind come
// in order of start — DetectTokens emits the named entities, then the
// concepts, each from a left-to-right scan. Only the few patterns are
// comparison-sorted. The rest take comparePriority's order from one stable
// counting pass keyed on (length descending, kind): within a bucket the
// keys left to compare are start, then input position, and input order
// already is that order. A candidate survives if no byte of its span is in
// the occupancy bitset, and then claims its bytes. Survivors are disjoint,
// so no two share a start, and the start-ordered output is a merge of the
// input's start-ordered runs (five at most for DetectTokens: emails, URLs,
// phones, named entities, concepts), each walked over its survivors. The
// working buffers live in sc. The result is dst extended, grown once to
// its final size, and holds copies: it never aliases ds or sc.
//
//kw:fresh
func resolveCollisions(sc *scratch, dst, ds []Detection) []Detection {
	pats, extent, maxLen := sc.pats[:0], 0, 0
	for i := range ds {
		d := &ds[i]
		extent = max(extent, d.End)
		if d.Kind == KindPattern {
			pats = append(pats, spanKey{start: d.Start, end: d.End, kind: d.Kind, idx: i})
		} else {
			maxLen = max(maxLen, d.End-d.Start)
		}
	}
	slices.SortFunc(pats, comparePriority)

	counts := zeroed(sc.counts, 2*maxLen)
	for i := range ds {
		if ds[i].Kind != KindPattern {
			counts[bucket(&ds[i], maxLen)]++
		}
	}
	var next int32
	for b, n := range counts {
		counts[b], next = next, next+n
	}
	order := zeroed(sc.order, len(ds)-len(pats))
	for i := range ds {
		if ds[i].Kind != KindPattern {
			b := bucket(&ds[i], maxLen)
			order[counts[b]] = int32(i)
			counts[b]++
		}
	}

	occ, kept, survivors := zeroed(sc.occ, (extent+63)/64), zeroed(sc.kept, len(ds)), 0
	for _, k := range pats {
		if claim(occ, k.start, k.end) {
			kept[k.idx] = true
			survivors++
		}
	}
	for _, i := range order {
		if claim(occ, ds[i].Start, ds[i].End) {
			kept[i] = true
			survivors++
		}
	}

	runs := sc.runs[:0]
	for i := range ds {
		if i == 0 || ds[i].Start < ds[i-1].Start {
			runs = append(runs, run{next: i})
		}
		runs[len(runs)-1].end = i + 1
	}
	for r := range runs {
		runs[r].next = nextKept(kept, runs[r].next, runs[r].end)
	}
	dst = slices.Grow(dst, survivors)
	for ; survivors > 0; survivors-- {
		first := -1
		for r, rn := range runs {
			if rn.next < rn.end && (first < 0 || ds[rn.next].Start < ds[runs[first].next].Start) {
				first = r
			}
		}
		rn := &runs[first]
		dst = append(dst, ds[rn.next])
		rn.next = nextKept(kept, rn.next+1, rn.end)
	}
	sc.pats, sc.counts, sc.order, sc.occ, sc.kept, sc.runs = pats, counts, order, occ, kept, runs
	return dst
}

// bucket is the counting pass's key of a non-pattern detection, given the
// longest such span: longer spans first, then named entities before
// concepts.
func bucket(d *Detection, maxLen int) int {
	return 2*(maxLen-(d.End-d.Start)) + int(d.Kind-KindNamed)
}

// nextKept returns the position of the first survivor in [i,end), or end.
func nextKept(kept []bool, i, end int) int {
	for i < end && !kept[i] {
		i++
	}
	return i
}

// claim reports whether no byte of the non-empty span [start,end) is set in
// occ, and if so sets them all.
func claim(occ []uint64, start, end int) bool {
	lo, hi := start>>6, (end-1)>>6
	for w := lo; w <= hi; w++ {
		if occ[w]&spanBits(w, start, end) != 0 {
			return false
		}
	}
	for w := lo; w <= hi; w++ {
		occ[w] |= spanBits(w, start, end)
	}
	return true
}

// spanBits is the part of [start,end) in occupancy word w, as a mask.
func spanBits(w, start, end int) uint64 {
	from, to := max(start-w<<6, 0), min(end-w<<6, 64)
	return ^uint64(0) >> (64 - (to - from)) << from
}

// zeroed returns s resized to n zero elements, reusing its array when it
// has room.
func zeroed[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}
