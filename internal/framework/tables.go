// Package framework implements the paper's production runtime (§VI): the
// offline-mined artifacts packed into memory-efficient tables — 2-byte
// quantized interestingness fields (18 B per concept), a Global TID Table
// mapping terms to 22-bit ids, relevant-keyword packs of 32-bit (TID,score)
// entries (400 B per concept at m=100), which the bundle stores in the
// Golomb-coded form §VI proposes and loading unpacks — plus the online
// Stemmer+Ranker pipeline whose throughput the paper reports (7.9 MB/s and
// 2.4 MB/s on their 2007 hardware).
package framework

import (
	"math"
	"sort"

	"contextrank/internal/corpus"
	"contextrank/internal/features"
	"contextrank/internal/match"
	"contextrank/internal/relevance"
	"contextrank/internal/world"
)

// NumFields is the number of interestingness fields (Table I).
const NumFields = 9

// BytesPerConcept is the quantized interestingness footprint: "we first
// compute the values for these features in the offline process, and employ
// a normalization that would fit each field to two bytes ... the
// interestingness vectors for 1 million concepts would cost 18MB".
const BytesPerConcept = NumFields * 2

// Calibration holds the per-field maxima used for 16-bit fixed-point
// quantization ("this causes a minor decrease in granularity").
type Calibration struct {
	Max [NumFields]float64
}

// fieldsToRaw flattens Fields in Table I order.
func fieldsToRaw(f features.Fields) [NumFields]float64 {
	return [NumFields]float64{
		f.FreqExact, f.FreqPhraseContained, f.UnitScore, f.SearchEnginePhrase,
		f.ConceptSize, f.NumberOfChars, f.Subconcepts,
		float64(f.HighLevelType), f.WikiWordCount,
	}
}

func rawToFields(raw [NumFields]float64) features.Fields {
	return features.Fields{
		FreqExact:           raw[0],
		FreqPhraseContained: raw[1],
		UnitScore:           raw[2],
		SearchEnginePhrase:  raw[3],
		ConceptSize:         raw[4],
		NumberOfChars:       raw[5],
		Subconcepts:         raw[6],
		HighLevelType:       world.EntityType(int(raw[7] + 0.5)),
		WikiWordCount:       raw[8],
	}
}

// Calibrate computes field maxima over a concept inventory.
func Calibrate(all []features.Fields) Calibration {
	var c Calibration
	for _, f := range all {
		raw := fieldsToRaw(f)
		for i, v := range raw {
			if v > c.Max[i] {
				c.Max[i] = v
			}
		}
	}
	for i := range c.Max {
		if c.Max[i] <= 0 {
			c.Max[i] = 1
		}
	}
	return c
}

// quantize maps v in [0,max] to a uint16.
func quantize(v, max float64) uint16 {
	if v <= 0 {
		return 0
	}
	if v >= max {
		return math.MaxUint16
	}
	return uint16(v / max * math.MaxUint16)
}

func dequantize(q uint16, max float64) float64 {
	return float64(q) / math.MaxUint16 * max
}

// InterestTable is the packed interestingness store: the concept names plus
// a flat []uint16 blob at exactly BytesPerConcept per entry, so "the
// vectors for the detected concepts can be retrieved in constant time".
type InterestTable struct {
	calib Calibration
	names *match.Vocab // row r is id r; its fields are data[r*NumFields:]
	data  []uint16
}

// BuildInterestTable quantizes the fields of every named concept, each once.
func BuildInterestTable(names []string, fieldsOf func(string) features.Fields) *InterestTable {
	all := make([]features.Fields, len(names))
	for i, n := range names {
		all[i] = fieldsOf(n)
	}
	t := &InterestTable{
		calib: Calibrate(all),
		names: match.NewVocab(),
		data:  make([]uint16, 0, len(names)*NumFields),
	}
	for i, n := range names {
		if t.names.Intern(n) != uint32(i) {
			panic("framework: repeated concept " + n)
		}
		raw := fieldsToRaw(all[i])
		for fi, v := range raw {
			if fi == 7 {
				// HighLevelType is categorical: stored verbatim.
				t.data = append(t.data, uint16(v))
				continue
			}
			t.data = append(t.data, quantize(v, t.calib.Max[fi]))
		}
	}
	return t
}

// Len returns the number of stored concepts.
func (t *InterestTable) Len() int { return t.names.Len() }

// MemoryBytes returns the blob size (the paper's 18 MB for 1M concepts).
func (t *InterestTable) MemoryBytes() int { return len(t.data) * 2 }

// Fields reconstructs the (dequantized) field record for a concept.
func (t *InterestTable) Fields(name string) (features.Fields, bool) {
	if r := t.names.ID(name); r != match.NoID {
		return t.fieldsAt(r), true
	}
	return features.Fields{}, false
}

func (t *InterestTable) fieldsAt(r uint32) features.Fields {
	var raw [NumFields]float64
	for fi, q := range t.data[int(r)*NumFields : (int(r)+1)*NumFields] {
		if fi == 7 {
			raw[fi] = float64(q)
			continue
		}
		raw[fi] = dequantize(q, t.calib.Max[fi])
	}
	return rawToFields(raw)
}

// TID packing constants: "the largest TID value we need to support in the
// system ... can easily fit into 22 bits. We normalize the scores of the
// relevant terms to be in the range of 0 and 1023, so that they can fit in
// 10 bits. So for each concept, we need 400 bytes to store its top 100
// (TID, score) pairs, since each pair can be stored in 32 bits, combined."
const (
	TIDBits   = 22
	ScoreBits = 10
	MaxTID    = 1<<TIDBits - 1
	MaxQScore = 1<<ScoreBits - 1
)

// KeywordPacks stores each concept's relevant keywords as packed 32-bit
// (TID, score) entries sorted by TID, a pack per row of its names.
type KeywordPacks struct {
	// TIDs is the Global TID Table: every term used by at least one
	// concept's keywords, interned to a dense id below 2^TIDBits.
	TIDs     *match.Vocab
	names    *match.Vocab // packs[r] is the pack of names' id r
	packs    [][]uint32
	maxScore float64 // dequantization scale
}

// packEntry packs a TID and a quantized score into 32 bits.
func packEntry(tid uint32, qscore uint32) uint32 {
	return tid<<ScoreBits | qscore&MaxQScore
}

func unpackEntry(e uint32) (tid, qscore uint32) {
	return e >> ScoreBits, e & MaxQScore
}

// BuildKeywordPacks packs a mined relevance store. Scores are normalized to
// 0..1023 against the global maximum keyword score.
func BuildKeywordPacks(store *relevance.Store) *KeywordPacks {
	names := store.Concepts()
	maxScore := 0.0
	for _, n := range names {
		for _, k := range store.Keywords(n) {
			if k.Weight > maxScore {
				maxScore = k.Weight
			}
		}
	}
	if maxScore <= 0 {
		maxScore = 1
	}
	kp := &KeywordPacks{TIDs: match.NewVocab(), names: match.NewVocab(), packs: make([][]uint32, len(names)), maxScore: maxScore}
	for r, n := range names {
		kp.names.Intern(n)
		kws := store.Keywords(n)
		entries := make([]uint32, 0, len(kws))
		for _, e := range kws {
			tid := kp.TIDs.Intern(store.Dict().Token(e.Stem))
			if tid > MaxTID {
				// 1M concepts × shared keywords stay far below it, as the
				// paper observes.
				panic("framework: TID space exhausted")
			}
			q := uint32(e.Weight / maxScore * MaxQScore)
			if q > MaxQScore {
				q = MaxQScore
			}
			entries = append(entries, packEntry(tid, q))
		}
		// Sort by TID so the pack is Golomb-compressible and mergeable.
		sort.Slice(entries, func(i, j int) bool { return entries[i]>>ScoreBits < entries[j]>>ScoreBits })
		kp.packs[r] = entries
	}
	return kp
}

// inRows lays kp's packs out in t's rows, over t's names (kp itself if
// they are its own). whole reports that every row has a pack.
func (kp *KeywordPacks) inRows(t *InterestTable) (aligned *KeywordPacks, whole bool) {
	if kp.names == t.names {
		return kp, true
	}
	aligned, whole = &KeywordPacks{TIDs: kp.TIDs, names: t.names, packs: make([][]uint32, t.Len()), maxScore: kp.maxScore}, true
	for r := range aligned.packs {
		name := t.names.Token(uint32(r))
		aligned.packs[r] = kp.pack(name)
		whole = whole && kp.names.ID(name) != match.NoID
	}
	return aligned, whole
}

// Len returns the number of packed concepts.
func (k *KeywordPacks) Len() int { return len(k.packs) }

func (k *KeywordPacks) pack(name string) []uint32 {
	if r := k.names.ID(name); r != match.NoID {
		return k.packs[r]
	}
	return nil
}

// BytesFor returns the packed size of one concept's keywords (≤ 400 bytes
// at the paper's m=100).
func (k *KeywordPacks) BytesFor(concept string) int { return 4 * len(k.pack(concept)) }

// TotalBytes returns the aggregate pack size across concepts.
func (k *KeywordPacks) TotalBytes() int {
	n := 0
	for _, p := range k.packs {
		n += 4 * len(p)
	}
	return n
}

// GolombBytes returns the size of the packs' entries in the Golomb form
// the bundle stores them in: each pack's delta-Golomb TID stream and 10-bit
// score stream as appendPack writes them, without its count and parameter.
func (k *KeywordPacks) GolombBytes() int {
	n := 0
	var buf []byte
	for _, p := range k.packs {
		var streams int
		buf, streams = appendPack(buf[:0], p)
		n += streams
	}
	return n
}

// Keywords reconstructs the dequantized keyword vector of a concept.
func (k *KeywordPacks) Keywords(concept string) corpus.Vector {
	pack := k.pack(concept)
	out := make(corpus.Vector, 0, len(pack))
	for _, e := range pack {
		tid, q := unpackEntry(e)
		out = append(out, corpus.Entry{
			Term:   k.TIDs.Token(tid),
			Weight: float64(q) / MaxQScore * k.maxScore,
		})
	}
	corpus.SortVector(out)
	return out
}

// scoreNorm computes the relevance of a pack against a context's TID set —
// the online counterpart of relevance.Store.Score, "achieved quite
// efficiently" because both sides are integer ids — with its
// coverage-normalized form beside it: the pack's quantized score mass
// found in the set over its whole mass. The uint32 sums cannot overflow: a
// built pack holds at most TopM entries and a loaded one at most
// maxPackLen, each at most MaxQScore.
func (k *KeywordPacks) scoreNorm(pack []uint32, in *tidSet) (score, norm float64) {
	var hit, total uint32
	for _, e := range pack {
		tid, q := unpackEntry(e)
		total += q
		if in.mark[tid] == in.gen {
			hit += q
			score += float64(float64(q) / MaxQScore * k.maxScore)
		}
	}
	if total > 0 {
		norm = float64(hit) / float64(total)
	}
	return score, norm
}

// tidSet is a set of TIDs stamped with a generation: tid is in it while
// mark[tid] == gen, so emptying it is one increment.
type tidSet struct {
	mark []uint32
	gen  uint32
}

// stamp empties the set, sized for TIDs below n (the pooled scratch may
// come from a runtime with a smaller TID table), adds tids but match.NoID,
// and returns how many distinct TIDs it holds.
func (s *tidSet) stamp(n int, tids []uint32) (distinct int) {
	if len(s.mark) < n {
		s.mark = make([]uint32, n)
	}
	if s.gen++; s.gen == 0 { // wrapped: old stamps would match again
		clear(s.mark)
		s.gen = 1
	}
	for _, tid := range tids {
		if tid != match.NoID && s.mark[tid] != s.gen {
			s.mark[tid] = s.gen
			distinct++
		}
	}
	return distinct
}
