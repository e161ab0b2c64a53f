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
// re-encode with the bulk build's own freezeTerms — so a merged segment is
// bit-identical at any worker count, and a full merge reproduces the
// from-scratch frozen image byte for byte (the ingest differential suite
// pins both).

import (
	"math"
	"runtime"
	"slices"
	"unsafe"

	"contextrank/internal/match"
	"contextrank/internal/par"
)

// segment is one immutable tier of postings: either raw (sealed memtable) or
// frozen (Golomb/bitmap compressed). Exactly one of raw/frozen is non-nil.
// seal records the resident footprint at construction; after that the
// segment never changes — that is what makes lock-free sharing across views
// sound.
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
	frozen *frozenIndex  // compressed postings, segment-local doc ids

	resident int // bytes the postings hold (IndexStats.ResidentBytes)
}

// seal records the segment's resident footprint: a frozen segment's header
// table and arenas, a raw segment's term table and lists by capacity. It is
// the finisher of the frozen-after contract: no field is written after seal
// returns.
func (s *segment) seal() {
	if s.frozen != nil {
		s.resident = s.frozen.residentBytes()
		return
	}
	s.resident = 4*cap(s.terms) + int(unsafe.Sizeof(postingList{}))*cap(s.raw)
	for i := range s.raw {
		pl := &s.raw[i]
		s.resident += 4 * (cap(pl.docs) + cap(pl.starts) + cap(pl.positions))
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

// newFrozenSegment wraps compressed postings (from the bulk build or a
// merge).
func newFrozenSegment(base, nDocs int32, fx *frozenIndex) *segment {
	s := &segment{base: base, nDocs: nDocs, frozen: fx}
	s.seal()
	return s
}

// numTerms returns one past the largest term id the segment can hold
// postings for (the width a merge output table must cover).
func (s *segment) numTerms() int {
	if s.frozen != nil {
		return len(s.frozen.terms)
	}
	if len(s.terms) == 0 {
		return 0
	}
	return int(s.terms[len(s.terms)-1]) + 1
}

// df returns the term's document frequency within this segment.
func (s *segment) df(id uint32) int {
	if s.frozen != nil {
		if int(id) >= len(s.frozen.terms) {
			return 0
		}
		return int(s.frozen.terms[id].nDocs)
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
// decoders, straight into out; a raw list is copied whole.
func (s *segment) appendList(id uint32, rebase int32, out *postingList) {
	if s.frozen != nil {
		if int(id) >= len(s.frozen.terms) {
			return
		}
		fl := s.frozen.list(id)
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
	if pl := s.rawList(id); pl != nil {
		out.appendPostings(pl, rebase)
	}
}

// mergeSegments compacts a contiguous run of segments into one frozen
// segment. Per-term work (decode inputs in stack order, re-encode) is a pure
// function of the inputs and freezeTerms concatenates its chunks in term
// order, so the merged segment is bit-identical at any worker count
// (internal/par semantics: 0 = GOMAXPROCS). Terms absent from the whole run
// get an empty header: partial merges of sparse segments touch only a slice
// of the vocabulary, and a full merge has none (every interned term has
// postings somewhere).
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
	fx := freezeTerms(workers, nTerms, func(t int, pl *postingList) {
		// Yield the scheduler periodically so a woken query goroutine gets
		// the CPU within a bounded slice of merge work — without this, a
		// deployment with fewer cores than goroutines sees read latency
		// double whenever a major merge is in flight. Index-based so it is
		// identical at any worker count.
		if t%16 == 0 {
			runtime.Gosched()
		}
		for _, s := range segs {
			s.appendList(uint32(t), s.base-base, pl)
		}
	})
	return newFrozenSegment(base, width, fx)
}

// mergeRawSegments concatenates a run of raw segments into one sparse raw
// segment — the minor compaction. No compression work happens: every
// output list is sized from its inputs, all of them are carved from one
// exact-size arena, and each input list is copied in whole. Minor merges
// keep the stack short between the (much more expensive) Golomb-encoding
// major merges; a doc's postings are re-encoded once per major tier instead
// of once per size-tier level.
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
	union = slices.Clone(slices.Compact(union)) // exact size: the segment keeps it

	// Size every output list from its inputs: n[i] holds list i's doc and
	// position counts, then off[i] where it starts in the arena — its
	// docs, its starts (as many), then its positions.
	n := make([][2]int, len(union))
	par.For(workers, len(union), func(i int) {
		for _, s := range segs {
			if pl := s.rawList(union[i]); pl != nil {
				n[i][0] += len(pl.docs)
				n[i][1] += len(pl.positions)
			}
		}
	})
	off := make([]int, len(union)+1)
	for i := range n {
		off[i+1] = off[i] + 2*n[i][0] + n[i][1]
	}
	arena := make([]int32, off[len(union)])
	lists := make([]postingList, len(union))
	par.For(workers, len(union), func(i int) {
		if i%256 == 0 {
			runtime.Gosched() // bounded read-latency slice; see mergeSegments
		}
		nd, np := n[i][0], n[i][1]
		a := arena[off[i]:off[i+1]]
		out := &lists[i]
		*out = postingList{docs: a[:0:nd], starts: a[nd : nd : 2*nd], positions: a[2*nd : 2*nd : 2*nd+np]}
		for _, s := range segs {
			if pl := s.rawList(union[i]); pl != nil {
				out.appendPostings(pl, s.base-base)
			}
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
	segs    []*segment
	docs    []docRec // visible docs: global ids [0, len(docs))
	lens    []int32  // visible docs' token counts, by global id
	stopID  []bool   // term id -> stopword, covers every visible term
	vocab   *match.Vocab
	epoch   uint64 // bumped exactly when the visibility horizon moves
	cache   *countCache
	forward int // arena bytes of the visible docs (IndexStats.ForwardBytes)
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
