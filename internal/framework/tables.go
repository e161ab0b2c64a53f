// Package framework implements the paper's production runtime (§VI): the
// offline-mined artifacts packed into memory-efficient tables — 2-byte
// quantized interestingness fields (18 B per concept), a Global TID Table
// mapping terms to 22-bit ids, relevant-keyword packs of 32-bit (TID,score)
// entries (400 B per concept at m=100), an optional Golomb-compressed pack
// variant — plus the online Stemmer+Ranker pipeline whose throughput the
// paper reports (7.9 MB/s and 2.4 MB/s on their 2007 hardware).
package framework

import (
	"math"
	"sort"

	"contextrank/internal/corpus"
	"contextrank/internal/features"
	"contextrank/internal/golomb"
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

// InterestTable is the packed interestingness store: a hash index plus a
// flat []uint16 blob at exactly BytesPerConcept per entry, so "the vectors
// for the detected concepts can be retrieved in constant time".
type InterestTable struct {
	calib Calibration
	index map[string]int
	data  []uint16
}

// BuildInterestTable quantizes the fields of every named concept.
func BuildInterestTable(names []string, fieldsOf func(string) features.Fields) *InterestTable {
	all := make([]features.Fields, len(names))
	for i, n := range names {
		all[i] = fieldsOf(n)
	}
	t := &InterestTable{
		calib: Calibrate(all),
		index: make(map[string]int, len(names)),
		data:  make([]uint16, 0, len(names)*NumFields),
	}
	for i, n := range names {
		t.index[n] = len(t.data)
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
func (t *InterestTable) Len() int { return len(t.index) }

// MemoryBytes returns the blob size (the paper's 18 MB for 1M concepts).
func (t *InterestTable) MemoryBytes() int { return len(t.data) * 2 }

// Fields reconstructs the (dequantized) field record for a concept.
func (t *InterestTable) Fields(name string) (features.Fields, bool) {
	off, ok := t.index[name]
	if !ok {
		return features.Fields{}, false
	}
	var raw [NumFields]float64
	for fi := 0; fi < NumFields; fi++ {
		q := t.data[off+fi]
		if fi == 7 {
			raw[fi] = float64(q)
			continue
		}
		raw[fi] = dequantize(q, t.calib.Max[fi])
	}
	return rawToFields(raw), true
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
// (TID, score) entries sorted by TID.
type KeywordPacks struct {
	// TIDs is the Global TID Table: every term used by at least one
	// concept's keywords, interned to a dense id below 2^TIDBits.
	TIDs     *match.Vocab
	packs    map[string][]uint32
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
		for _, e := range store.RelevantTerms(n) {
			if e.Weight > maxScore {
				maxScore = e.Weight
			}
		}
	}
	if maxScore <= 0 {
		maxScore = 1
	}
	kp := &KeywordPacks{TIDs: match.NewVocab(), packs: make(map[string][]uint32, len(names)), maxScore: maxScore}
	for _, n := range names {
		terms := store.RelevantTerms(n)
		entries := make([]uint32, 0, len(terms))
		for _, e := range terms {
			tid := kp.TIDs.Intern(e.Term)
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
		kp.packs[n] = entries
	}
	return kp
}

// Len returns the number of packed concepts.
func (k *KeywordPacks) Len() int { return len(k.packs) }

// BytesFor returns the packed size of one concept's keywords (≤ 400 bytes
// at the paper's m=100).
func (k *KeywordPacks) BytesFor(concept string) int { return 4 * len(k.packs[concept]) }

// TotalBytes returns the aggregate pack size across concepts.
func (k *KeywordPacks) TotalBytes() int {
	n := 0
	for _, p := range k.packs {
		n += 4 * len(p)
	}
	return n
}

// Keywords reconstructs the dequantized keyword vector of a concept.
func (k *KeywordPacks) Keywords(concept string) corpus.Vector {
	pack := k.packs[concept]
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

// Score computes the relevance of concept against a document's TID set —
// the online counterpart of relevance.Store.Score, "achieved quite
// efficiently" because both sides are integer ids.
func (k *KeywordPacks) Score(concept string, docTIDs map[uint32]bool) float64 {
	score, _ := k.scoreNorm(concept, docTIDs)
	return score
}

// scoreNorm is Score with its coverage-normalized form beside it: the
// pack's quantized score mass found in docTIDs over its whole mass —
// relevance.Store.NormalizedScoreCtx over the pack. The uint32 sums cannot
// overflow: a pack holds at most TopM entries of at most MaxQScore.
func (k *KeywordPacks) scoreNorm(concept string, docTIDs map[uint32]bool) (score, norm float64) {
	var hit, total uint32
	for _, e := range k.packs[concept] {
		tid, q := unpackEntry(e)
		total += q
		if docTIDs[tid] {
			hit += q
			score += float64(q) / MaxQScore * k.maxScore
		}
	}
	if total > 0 {
		norm = float64(hit) / float64(total)
	}
	return score, norm
}

// DocTIDs maps a document's stemmed content terms to the TID set used by
// Score. Terms outside the Global TID Table are ignored (they cannot match
// any concept's keywords).
func (k *KeywordPacks) DocTIDs(stems map[string]bool) map[uint32]bool {
	out := make(map[uint32]bool, len(stems))
	for s := range stems {
		if id := k.TIDs.ID(s); id != match.NoID {
			out[id] = true
		}
	}
	return out
}

// CompressedPack is the Golomb-coded form of one concept's keywords: TIDs
// delta-Golomb coded, scores stored raw at 10 bits each.
type CompressedPack struct {
	N        int
	M        uint32
	TIDData  []byte
	ScoreBit []byte
}

// Compress Golomb-codes a pack.
func (k *KeywordPacks) Compress(concept string) CompressedPack {
	pack := k.packs[concept]
	tids := make([]uint32, len(pack))
	var scores golomb.BitWriter
	for i, e := range pack {
		tid, q := unpackEntry(e)
		tids[i] = tid
		scores.WriteBits(uint64(q), ScoreBits)
	}
	data, m := golomb.EncodeSorted(tids)
	return CompressedPack{N: len(pack), M: m, TIDData: data, ScoreBit: scores.Bytes()}
}

// Bytes returns the compressed size.
func (p CompressedPack) Bytes() int { return len(p.TIDData) + len(p.ScoreBit) }
