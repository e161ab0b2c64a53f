package searchsim

// The LSM two-tier engine's unit of immutability. Writes land in a
// writer-private memtable (plain postingLists, segment-local doc ids); when
// the memtable seals — at the flush threshold or an explicit Commit — its
// lists transfer wholesale into a raw *segment and become visible. Background
// compaction folds runs of small segments into one Golomb/bitmap-compressed
// frozen segment. Readers only ever see segments through a *view published
// with an atomic pointer swap, so a query holds one consistent segment stack
// for its whole evaluation and never takes a lock.
//
// Doc ids are segment-local; base maps them into the engine's global doc-id
// space ([base, base+nDocs)). Merging K segments is per-term pure — decode
// each input's postings in segment order with the doc ids rebased, then
// re-encode with the exact freezeList coder — so a merged segment is
// bit-identical at any worker count, and a full merge reproduces the
// from-scratch frozen image byte for byte (the ingest differential suite
// pins both).

import (
	"math"
	"runtime"
	"slices"

	"contextrank/internal/par"
)

// segment is one immutable tier of postings: either raw (sealed memtable) or
// frozen (Golomb/bitmap compressed). Exactly one of raw/frozen is non-nil.
// seal finalizes the size accounting at construction; after that the segment
// never changes — that is what makes lock-free sharing across views sound.
//
//kw:frozen-after(seal)
type segment struct {
	base  int32 // global doc id of the segment's first document
	nDocs int32 // docs covered: global ids [base, base+nDocs)

	// raw is sparse: raw[i] is the posting list of term id terms[i]
	// (ascending). A sealed memtable touches only a small slice of the
	// vocabulary, so storing just the touched terms keeps each seal
	// O(touched) instead of O(vocabulary) — a dense table would allocate and
	// zero a vocabulary-sized list table per commit, which dominated the
	// ingest profile.
	terms  []uint32
	raw    []postingList // sealed memtable postings, segment-local doc ids
	frozen []frozenList  // compressed postings, segment-local doc ids

	postings  int // (term, doc) pairs
	positions int // token occurrences
	bytes     int // resident payload footprint
}

// seal captures the segment's size accounting. It is the finisher of the
// frozen-after contract: no field is written after seal returns.
func (s *segment) seal() {
	for i := range s.raw {
		s.postings += len(s.raw[i].docs)
		s.positions += len(s.raw[i].positions)
		s.bytes += s.raw[i].rawBytes()
	}
	for i := range s.frozen {
		s.postings += int(s.frozen[i].nDocs)
		s.positions += int(s.frozen[i].nPos)
		s.bytes += s.frozen[i].frozenBytes()
	}
}

// newSparseRawSegment wraps a sealed memtable as a sparse raw segment:
// lists[i] holds the postings of term terms[i], with terms sorted ascending.
// Ownership of both slices transfers to the segment.
func newSparseRawSegment(base, nDocs int32, terms []uint32, lists []postingList) *segment {
	s := &segment{base: base, nDocs: nDocs, terms: terms, raw: lists}
	s.seal()
	return s
}

// rawList returns the segment's raw posting list for id, or nil when the
// term has no postings here, by binary search of the term table.
func (s *segment) rawList(id uint32) *postingList {
	lo, hi := 0, len(s.terms)
	for lo < hi {
		mid := (lo + hi) / 2
		if s.terms[mid] < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(s.terms) && s.terms[lo] == id {
		return &s.raw[lo]
	}
	return nil
}

// newFrozenSegment wraps compressed lists (from the bulk build or a merge).
func newFrozenSegment(base, nDocs int32, lists []frozenList) *segment {
	s := &segment{base: base, nDocs: nDocs, frozen: lists}
	s.seal()
	return s
}

// numTerms returns one past the largest term id the segment can hold
// postings for (the width a merge output table must cover).
func (s *segment) numTerms() int {
	if s.frozen != nil {
		return len(s.frozen)
	}
	if len(s.terms) == 0 {
		return 0
	}
	return int(s.terms[len(s.terms)-1]) + 1
}

// df returns the term's document frequency within this segment.
func (s *segment) df(id uint32) int {
	if s.frozen != nil {
		if int(id) >= len(s.frozen) {
			return 0
		}
		return int(s.frozen[id].nDocs)
	}
	if pl := s.rawList(id); pl != nil {
		return len(pl.docs)
	}
	return 0
}

// appendList appends the term's postings to out with doc ids shifted by
// rebase. This is the merge kernel: appending every input segment in stack
// order yields the exact raw list a from-scratch build would have produced.
// A frozen list is decoded block by block with the cursor's own three
// decoders, straight into out.
func (s *segment) appendList(id uint32, rebase int32, out *postingList) {
	if s.frozen != nil {
		if int(id) >= len(s.frozen) {
			return
		}
		fl := &s.frozen[id]
		var freqs [skipInterval]int32
		for k := 0; k < fl.nblocks(); k++ {
			n := fl.blockLen(k)
			lo := len(out.docs)
			out.docs = slices.Grow(out.docs, n)[:lo+n]
			fl.blockDocs(k, out.docs[lo:], rebase)
			fl.blockFreqs(k, freqs[:n])
			pos := fl.blockPositions(k)
			for _, f := range freqs[:n] {
				out.starts = append(out.starts, int32(len(out.positions)))
				out.positions = pos.next(out.positions, f)
			}
		}
		return
	}
	pl := s.rawList(id)
	if pl == nil {
		return
	}
	for i, d := range pl.docs {
		out.docs = append(out.docs, d+rebase)
		out.starts = append(out.starts, int32(len(out.positions)))
		out.positions = append(out.positions, pl.positions[pl.starts[i]:pl.end(i)]...)
	}
}

// mergeSegments compacts a contiguous run of segments into one frozen
// segment. Per-term work (decode inputs in stack order, re-encode with
// freezeList) is a pure function of the inputs, so the fan-out over terms is
// bit-identical at any worker count (internal/par semantics: 0 = GOMAXPROCS).
func mergeSegments(segs []*segment, workers int) *segment {
	first, last := segs[0], segs[len(segs)-1]
	base := first.base
	width := last.base + last.nDocs - base
	nTerms := 0
	for _, s := range segs {
		if n := s.numTerms(); n > nTerms {
			nTerms = n
		}
	}
	fr := make([]frozenList, nTerms)
	par.For(workers, nTerms, func(t int) {
		// Yield the scheduler periodically so a woken query goroutine gets
		// the CPU within a bounded slice of merge work — without this, a
		// deployment with fewer cores than goroutines sees read latency
		// double whenever a major merge is in flight. Index-based so it is
		// identical at any worker count.
		if t%16 == 0 {
			runtime.Gosched()
		}
		// Terms absent from the whole run keep the zero frozenList (df 0,
		// never bound by a cursor): partial merges of sparse segments touch
		// only a slice of the vocabulary, and a full merge never hits this
		// (every interned term has postings somewhere).
		df := 0
		for _, s := range segs {
			df += s.df(uint32(t))
		}
		if df == 0 {
			return
		}
		var pl postingList
		for _, s := range segs {
			s.appendList(uint32(t), s.base-base, &pl)
		}
		fr[t] = freezeList(&pl)
	})
	return newFrozenSegment(base, width, fr)
}

// mergeRawSegments concatenates a run of raw segments into one sparse raw
// segment — the minor compaction. No compression work happens: per term the
// input lists are appended with doc ids rebased, so the cost is a copy of
// the postings. Minor merges keep the stack short between the (much more
// expensive) Golomb-encoding major merges; a doc's postings are re-encoded
// once per major tier instead of once per size-tier level.
func mergeRawSegments(segs []*segment, workers int) *segment {
	first, last := segs[0], segs[len(segs)-1]
	base := first.base
	width := last.base + last.nDocs - base
	// Union of touched terms across the run (inputs are sparse raw).
	var union []uint32
	for _, s := range segs {
		union = append(union, s.terms...)
	}
	slices.Sort(union)
	union = slices.Compact(union)
	lists := make([]postingList, len(union))
	par.For(workers, len(union), func(i int) {
		if i%256 == 0 {
			runtime.Gosched() // bounded read-latency slice; see mergeSegments
		}
		for _, s := range segs {
			s.appendList(union[i], s.base-base, &lists[i])
		}
	})
	return newSparseRawSegment(base, width, union, lists)
}

// allRaw reports whether every segment in the run is raw (minor-mergeable).
func allRaw(segs []*segment) bool {
	for _, s := range segs {
		if s.frozen != nil {
			return false
		}
	}
	return true
}

// compactRatio and compactMinRun define the size-tiered trigger: starting
// from the newest segment, a candidate run extends to older segments while
// each is at most compactRatio× the docs accumulated so far, and the run
// merges only once it spans compactMinRun segments — small fresh segments
// batch up instead of rewriting the big base segment on every flush.
// majorMergeDocs is the raw-tier ceiling: a mergeable run of raw segments
// below it takes the cheap minor (raw concatenation) merge; at or above it
// — or whenever a frozen segment is in the run — the major merge
// Golomb-encodes the result.
const (
	compactRatio   = 2
	compactMinRun  = 4
	majorMergeDocs = 2048
)

// compactRange returns the [lo, hi) suffix of segs the size-tiered policy
// would merge, or (0, 0) when no merge is due.
func compactRange(segs []*segment) (int, int) {
	k := len(segs)
	if k < compactMinRun {
		return 0, 0
	}
	total := int(segs[k-1].nDocs)
	lo := k - 1
	for i := k - 2; i >= 0; i-- {
		if int(segs[i].nDocs) > compactRatio*total {
			break
		}
		total += int(segs[i].nDocs)
		lo = i
	}
	if k-lo < compactMinRun {
		return 0, 0
	}
	return lo, k
}

// view is one published, immutable snapshot of the engine: the segment
// stack, the visible doc prefix, the id-keyed stopword table, and the
// ResultCount memo bound to this visibility horizon. Readers load the
// current view with a single atomic pointer read and never observe a torn
// segment set.
type view struct {
	segs   []*segment
	docs   []Doc  // visible docs: global ids [0, len(docs))
	stopID []bool // term id -> stopword, covers every visible term
	vocab  *Vocab
	epoch  uint64 // bumped exactly when the visibility horizon moves
	cache  *countCache
}

// df returns the term's document frequency across the whole view.
func (v *view) df(id uint32) int {
	n := 0
	for _, s := range v.segs {
		n += s.df(id)
	}
	return n
}

// docFreq returns the document frequency of a term string: 0 outside the
// vocabulary, and for a term interned past this view's horizon (no visible
// segment holds its postings).
func (v *view) docFreq(term string) int {
	if id := v.vocab.ID(term); id != noTermID {
		return v.df(id)
	}
	return 0
}

// idf is the smoothed inverse document frequency over the view's visible
// documents (Engine.IDF). It is the one copy of the formula.
func (v *view) idf(term string) float64 {
	df := v.docFreq(term)
	return math.Log(float64(len(v.docs)+1)/float64(df+1)) + 1
}
