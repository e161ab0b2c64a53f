// Package units implements concept-unit extraction from search query logs,
// following the paper's §II-B and its references [7,8] (Parikh & Kapur's
// "units"): in the first iteration every single term appearing in queries is
// a unit; in following iterations units that frequently co-occur in queries
// are combined into larger candidate units, validated by mutual information
//
//	I(x,y) = log( p(x,y) / (p(x) p(y)) )            (paper Eq. 1)
//
// where the probabilities are relative frequencies over query submissions.
//
// Extraction reads the query log's interned term ids, and the unit matcher
// is compiled over the log's vocabulary: a unit's terms are log terms, so
// the package keeps no term table of its own.
package units

import (
	"math"
	"slices"
	"sort"
	"strings"
	"sync"

	"contextrank/internal/match"
	"contextrank/internal/querylog"
	"contextrank/internal/textproc"
)

// Unit is a validated concept unit.
type Unit struct {
	// Text is the space-separated unit phrase.
	Text string
	// Terms are the individual terms.
	Terms []string
	// Freq is the frequency-weighted number of query submissions containing
	// the unit as a contiguous phrase.
	Freq int64
	// Score is the normalized unit score in [0,1] used by the concept
	// vector and by the unit_score interestingness feature.
	Score float64
	// StopOnly marks units whose terms are all stop-words. Precomputed at
	// extraction time so the detection filter never re-tokenizes the unit
	// text on the hot path.
	StopOnly bool
}

// Config parameterizes extraction.
type Config struct {
	// MaxLen is the maximum unit length in terms. Default 3.
	MaxLen int
	// MinFreq is the minimum frequency-weighted support for a candidate.
	// Default 5.
	MinFreq int64
	// MinMI is the validation threshold on mutual information. Default 2.0.
	MinMI float64
}

func (c Config) withDefaults() Config {
	if c.MaxLen == 0 {
		c.MaxLen = 3
	}
	if c.MinFreq == 0 {
		c.MinFreq = 5
	}
	if c.MinMI == 0 {
		c.MinMI = 2.0
	}
	return c
}

// Set is the extracted unit inventory with phrase lookup and in-document
// scanning support. Scanning runs on a token-trie matcher over the query
// log's vocabulary, built once at extraction time (DESIGN.md §10).
type Set struct {
	units   map[string]*Unit
	maxLen  int
	vocab   *match.Vocab
	matcher *match.Matcher
	pats    []*Unit // pattern id -> unit
}

// Extract runs the iterative unit-extraction algorithm over the log.
//
// An n-gram is a fixed-width packed key of the log's term ids (4 big-endian
// bytes per id, Log.TermIDs), so the frequency pass allocates once per
// *distinct* n-gram instead of once per occurrence, and the split
// validation of iterations 2..MaxLen probes sub-keys by slicing the packed
// key — no Join/Fields string round-trips. Unit text is only materialized
// for grams that validate. TestDifferentialExtractVsReference pins the
// output against the direct string-keyed implementation.
func Extract(l *querylog.Log, cfg Config) *Set {
	cfg = cfg.withDefaults()
	total := float64(l.TotalFreq())
	if total == 0 {
		s := &Set{units: map[string]*Unit{}, maxLen: cfg.MaxLen}
		s.buildIndex(l.Vocab())
		return s
	}
	termText := l.Vocab().Token

	// Pass 1: frequency of every contiguous n-gram, n ≤ MaxLen, weighted by
	// query frequency. A query contributes each distinct n-gram once.
	gramIdx := make(map[string]int32) // packed key -> index into gramFreq
	var gramFreq []int64
	var key []byte // reused packed-key buffer
	pack := func(ids []uint32) []byte {
		key = key[:0]
		for _, id := range ids {
			key = append(key, byte(id>>24), byte(id>>16), byte(id>>8), byte(id))
		}
		return key
	}
	for qi, q := range l.Queries {
		qids := l.TermIDs(qi)
		f := int64(q.Freq)
		for n := 1; n <= cfg.MaxLen; n++ {
			for i := 0; i+n <= len(qids); i++ {
				if dupGram(qids, i, n) {
					continue
				}
				k := pack(qids[i : i+n])
				if idx, ok := gramIdx[string(k)]; ok {
					gramFreq[idx] += f
				} else {
					gramIdx[string(k)] = int32(len(gramFreq))
					gramFreq = append(gramFreq, f)
				}
			}
		}
	}

	// Group the distinct grams by length. Sorted packed keys follow the
	// log's deterministic id order, so every run processes candidates
	// identically.
	byLen := make([][]string, cfg.MaxLen+1)
	for k := range gramIdx {
		byLen[len(k)/4] = append(byLen[len(k)/4], k)
	}
	for n := range byLen {
		sort.Strings(byLen[n])
	}
	p := func(k string) float64 { return float64(gramFreq[gramIdx[k]]) / total }

	// validated tracks accepted packed keys only; Unit values are
	// materialized afterwards from arenas. Inserting the byLen key strings
	// into the set allocates nothing new, so the whole validation phase is
	// probe-only.
	validated := make(map[string]bool, len(gramIdx))

	// Iteration 1: all single terms are units.
	var maxTermFreq int64
	for _, k := range byLen[1] {
		validated[k] = true
		if f := gramFreq[gramIdx[k]]; f > maxTermFreq {
			maxTermFreq = f
		}
	}

	// Iterations 2..MaxLen: grow candidates, validate with MI. A candidate
	// of length n is valid only if every split into two previously-validated
	// units has MI ≥ MinMI; the unit's MI is the minimum over splits
	// (conservative, mirrors the iterative combination of validated units).
	type accepted struct {
		key string
		mi  float64
	}
	var accept []accepted
	var maxMI float64
	for n := 2; n <= cfg.MaxLen; n++ {
		for _, g := range byLen[n] {
			if gramFreq[gramIdx[g]] < cfg.MinFreq {
				continue
			}
			mi := math.Inf(1)
			valid := true
			for split := 1; split < n; split++ {
				left, right := g[:4*split], g[4*split:]
				if !validated[left] || !validated[right] {
					valid = false
					break
				}
				pl, pr := p(left), p(right)
				if pl == 0 || pr == 0 {
					valid = false
					break
				}
				m := math.Log(p(g) / (pl * pr))
				if m < mi {
					mi = m
				}
			}
			if !valid || mi < cfg.MinMI {
				continue
			}
			validated[g] = true
			accept = append(accept, accepted{g, mi})
			if mi > maxMI {
				maxMI = mi
			}
		}
	}

	// Materialize the inventory: one []Unit arena, one shared Terms backing
	// array, and one byte arena for the multi-term texts (single-term units
	// reuse the log vocabulary's term string) — a handful of allocations
	// instead of three per unit. Capacities are exact, so the appends below never
	// reallocate and &units[i] pointers stay valid. Multi-term scores are
	// the paper's normalization MI/maxMI in [0,1].
	nTerms := len(byLen[1])
	textBytes := 0
	for _, a := range accept {
		n := len(a.key) / 4
		nTerms += n
		textBytes += n - 1
		for i := 0; i < n; i++ {
			textBytes += len(termText(unpackID(a.key, i)))
		}
	}
	units := make([]Unit, 0, len(byLen[1])+len(accept))
	termsArena := make([]string, 0, nTerms)
	var sb strings.Builder
	sb.Grow(textBytes)
	type span struct{ off, end int }
	spans := make([]span, len(accept))
	for i, a := range accept {
		off := sb.Len()
		for j := 0; j < len(a.key)/4; j++ {
			if j > 0 {
				sb.WriteByte(' ')
			}
			sb.WriteString(termText(unpackID(a.key, j)))
		}
		spans[i] = span{off, sb.Len()}
	}
	texts := sb.String()

	s := &Set{units: make(map[string]*Unit, cap(units)), maxLen: cfg.MaxLen}
	for _, k := range byLen[1] {
		text := termText(unpackID(k, 0))
		base := len(termsArena)
		termsArena = append(termsArena, text)
		units = append(units, Unit{
			Text:  text,
			Terms: termsArena[base:len(termsArena):len(termsArena)],
			Freq:  gramFreq[gramIdx[k]],
			Score: math.Log1p(float64(gramFreq[gramIdx[k]])) / math.Log1p(float64(maxTermFreq)),
		})
		s.units[text] = &units[len(units)-1]
	}
	for i, a := range accept {
		base := len(termsArena)
		for j := 0; j < len(a.key)/4; j++ {
			termsArena = append(termsArena, termText(unpackID(a.key, j)))
		}
		score := 0.0
		if maxMI > 0 {
			score = a.mi / maxMI
		}
		text := texts[spans[i].off:spans[i].end]
		units = append(units, Unit{
			Text:  text,
			Terms: termsArena[base:len(termsArena):len(termsArena)],
			Freq:  gramFreq[gramIdx[a.key]],
			Score: score,
		})
		s.units[text] = &units[len(units)-1]
	}

	s.buildIndex(l.Vocab())
	return s
}

// dupGram reports whether the n-gram at i repeats an earlier occurrence in
// the same query — the allocation-free form of pass 1's per-query dedup
// (queries are a handful of terms, so the quadratic scan is cheap).
func dupGram(qids []uint32, i, n int) bool {
	for j := 0; j < i; j++ {
		if slices.Equal(qids[j:j+n], qids[i:i+n]) {
			return true
		}
	}
	return false
}

// unpackID reads the i-th id out of a packed n-gram key.
func unpackID(k string, i int) uint32 {
	b := i * 4
	return uint32(k[b])<<24 | uint32(k[b+1])<<16 | uint32(k[b+2])<<8 | uint32(k[b+3])
}

// buildIndex compiles the unit inventory into the trie matcher over vocab
// (a fresh one if nil) and fills the precomputed per-unit flags. Every unit
// term is already in the log's vocabulary, so compiling over it interns
// nothing. Pattern ids are assigned in sorted text order for determinism
// across map iteration orders.
func (s *Set) buildIndex(vocab *match.Vocab) {
	texts := make([]string, 0, len(s.units))
	for text := range s.units {
		texts = append(texts, text)
	}
	sort.Strings(texts)
	b := match.NewBuilder(vocab)
	s.pats = make([]*Unit, 0, len(texts))
	for _, text := range texts {
		u := s.units[text]
		u.StopOnly = allStop(u.Terms)
		if id := b.Add(u.Terms); id != len(s.pats) {
			panic("units: non-dense pattern id")
		}
		s.pats = append(s.pats, u)
	}
	s.matcher = b.Build()
	s.vocab = b.Vocab()
}

func allStop(terms []string) bool {
	for _, t := range terms {
		if !textproc.IsStopword(t) {
			return false
		}
	}
	return len(terms) > 0
}

// Vocab exposes the matcher's vocabulary, the query log's, so the detection
// pipeline can map a document's tokens to ids once per document.
func (s *Set) Vocab() *match.Vocab { return s.vocab }

// Score returns the normalized unit score of phrase, or 0 if the phrase is
// not a unit.
func (s *Set) Score(phrase string) float64 {
	if u := s.units[phrase]; u != nil {
		return u.Score
	}
	return 0
}

// Match is one unit occurrence in a token sequence.
type Match struct {
	Unit *Unit
	// Start and End are token indexes ([Start,End)).
	Start, End int
}

// FindInIDs scans interned token ids (from Vocab().AppendIDs) for unit
// occurrences, greedy-longest at each position (a longer unit suppresses
// its prefixes at that position), and appends the matches to dst,
// returning it. With a pre-sized dst the scan performs zero allocations.
//
//kw:hotpath
func (s *Set) FindInIDs(ids []uint32, dst []Match) []Match {
	for i := 0; i < len(ids); i++ {
		if p, end, ok := s.matcher.LongestAt(ids, i); ok {
			dst = append(dst, Match{Unit: s.pats[p], Start: i, End: end})
		}
	}
	return dst
}

// subKeyPool pools the sub-phrase key buffer of SubconceptCountTerms.
var subKeyPool = sync.Pool{New: func() any { return new([]byte) }}

// SubconceptCountTerms returns the number of multi-term sub-phrases of the
// phrase terms (contiguous, length ≥ 2, shorter than the phrase itself)
// that are validated units with score above minScore. This powers the
// paper's interestingness feature (7) "subconcepts". The phrase comes
// pre-split — the feature extractor splits each concept once and reuses
// the terms across every per-term feature. Sub-phrase keys are assembled in
// a pooled buffer and probed with the map's string-conversion elision, so
// counting performs zero allocations.
func (s *Set) SubconceptCountTerms(terms []string, minScore float64) int {
	if len(terms) <= 2 {
		return 0
	}
	kp := subKeyPool.Get().(*[]byte)
	key := (*kp)[:0]
	count := 0
	for n := 2; n < len(terms); n++ {
		for i := 0; i+n <= len(terms); i++ {
			key = key[:0]
			for j := i; j < i+n; j++ {
				if j > i {
					key = append(key, ' ')
				}
				key = append(key, terms[j]...)
			}
			if u := s.units[string(key)]; u != nil && u.Score > minScore {
				count++
			}
		}
	}
	*kp = key
	subKeyPool.Put(kp)
	return count
}
