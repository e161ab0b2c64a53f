package searchsim

// The positional index behind the engine, in two representations:
//
//   - postingList: the raw form the memtable and its sealed segments hold
//     (and the bulk build's intermediate). One flat triple of slices per
//     interned term — ascending doc ids, per-doc start offsets, and the
//     concatenated ascending token positions. Appending during indexing is
//     O(1) amortized and the layout is cache-friendly for intersection.
//
//   - the frozen form (frozen.go): the compressed read-only postings of the
//     bulk-built base segment and of every major merge's output, packed
//     into three arenas per segment behind a 48-byte header per term. A
//     term's postings are three Golomb-coded gap streams (doc gaps,
//     frequency-minus-one, within-doc position gaps) plus skip blocks
//     every skipInterval docs. Each skip block records the block's first
//     doc id uncompressed and the bit offsets of the three streams, so a
//     cursor can gallop to an arbitrary doc by binary-searching the skip
//     table and decoding at most skipInterval-1 gaps — positions are only
//     ever decoded for blocks the intersection actually visits. frozenList
//     is the decoders' view of one term's spans, built when a cursor or a
//     merge binds the term; segments never store it.
//
// High-document-frequency terms additionally get a roaring-style doc-id
// bitmap instead of the Golomb doc stream (DESIGN.md §10): when a term
// appears in a large fraction of the corpus its doc gaps are tiny and the
// unary-heavy Golomb stream approaches one-plus bits per doc, so a plain
// bitmap is both smaller and decodes with bit tricks instead of a per-gap
// decoder loop. The encoder picks the representation per term by exact
// byte count; the skip table (block-first docs) is kept either way, so the
// cursor's galloping seek is unchanged and only block decoding dispatches.
//
// Both representations are evaluated by the same termCursor/leapfrog code
// below; differential tests pin them to each other and to the reference
// string-scanning engine bit for bit.

import (
	"cmp"
	"math/bits"
	"slices"
	"sort"
	"sync"

	"contextrank/internal/golomb"
)

// skipInterval is the number of docs per skip block in the frozen index.
// Part of the frozen layout: a cursor probe decodes at most skipInterval-1
// doc gaps and one block of positions.
const skipInterval = 32

// postingList is the raw postings of one term.
type postingList struct {
	docs      []int32 // ascending doc ids
	starts    []int32 // starts[i] indexes positions; doc i owns positions[starts[i]:starts[i+1]] (end = len(positions) for the last doc)
	positions []int32 // ascending within each doc
}

// add appends one occurrence. Docs arrive in ascending order and positions
// ascend within a doc, because indexing walks documents front to back.
func (pl *postingList) add(doc, pos int32) {
	if n := len(pl.docs); n == 0 || pl.docs[n-1] != doc {
		pl.docs = append(pl.docs, doc)
		pl.starts = append(pl.starts, int32(len(pl.positions)))
	}
	pl.positions = append(pl.positions, pos)
}

// end returns the exclusive position offset of doc index i.
func (pl *postingList) end(i int) int32 {
	if i+1 < len(pl.starts) {
		return pl.starts[i+1]
	}
	return int32(len(pl.positions))
}

// appendPostings appends in's postings to pl with doc ids shifted by rebase
// and start offsets by pl's position count — a whole list at a time, its
// positions in one copy: the raw merge kernel.
func (pl *postingList) appendPostings(in *postingList, rebase int32) {
	off := int32(len(pl.positions))
	for _, d := range in.docs {
		pl.docs = append(pl.docs, d+rebase)
	}
	for _, s := range in.starts {
		pl.starts = append(pl.starts, s+off)
	}
	pl.positions = append(pl.positions, in.positions...)
}

// frozenList is one term's frozen postings as the decoders read them: its
// counts and Golomb parameters from the term header, and its spans of the
// segment's arenas (frozenIndex.list).
type frozenList struct {
	nDocs int32

	docM, freqM, posM uint32
	docData           []byte // gap-1 coded doc deltas; block-first docs are elided (stored raw in skipFirstDoc)
	freqData          []byte // freq-1 per doc
	posData           []byte // per doc: first position, then gap-1 deltas; restarts every doc

	// docBits, when non-nil, replaces docData/skipDocBits for dense terms:
	// bit d set means doc d contains the term. skipFirstDoc is retained so
	// seekFrozen's binary search and the block-ordinal bookkeeping work
	// identically in both representations.
	docBits []uint64

	skipFirstDoc []int32 // first doc id of block k, uncompressed
	skipDocBits  []int32 // bit offset in docData of block k's second doc
	skipFreqBits []int32 // bit offset in freqData of block k's first freq
	skipPosBits  []int32 // bit offset in posData of block k's first position
}

// nblocks returns the number of skip blocks.
func (fl *frozenList) nblocks() int { return len(fl.skipFirstDoc) }

// The frozen list's three decoders, one per stream. Each writes into a
// destination its caller supplies — the cursor's block buffers on the query
// path, the merge's output list on the compaction path — so both read the
// layout through the same code.

// blockLen returns the number of docs in skip block k.
func (fl *frozenList) blockLen(k int) int {
	return min(int(fl.nDocs)-k*skipInterval, skipInterval)
}

// blockDocs decodes the doc ids of skip block k into dst[:blockLen(k)], each
// shifted by rebase, dispatching on the doc representation (Golomb gap
// stream vs dense bitmap).
func (fl *frozenList) blockDocs(k int, dst []int32, rebase int32) {
	v := fl.skipFirstDoc[k]
	dst[0] = v + rebase
	if fl.docBits != nil {
		fl.bitmapDocs(v, dst, rebase)
		return
	}
	c := golomb.NewCodec(fl.docM)
	r := golomb.BitReaderAt(fl.docData, int(fl.skipDocBits[k]))
	for j := 1; j < len(dst); j++ {
		g, err := c.Read(&r)
		if err != nil {
			panic("searchsim: frozen doc stream corrupt: " + err.Error())
		}
		v += int32(g) + 1
		dst[j] = v + rebase
	}
}

// bitmapDocs fills dst[1:] from the doc bitmap: after the block-first doc v
// (from the skip table), the next len(dst)-1 set bits are extracted word by
// word with trailing-zero counts — no per-gap decoder state, which is what
// makes the bitmap path fast for dense terms.
//
//kw:hotpath
func (fl *frozenList) bitmapDocs(v int32, dst []int32, rebase int32) {
	bm := fl.docBits
	w := int(v) >> 6
	// Mask away bit v and everything below it; a shift of 64 (v at bit 63)
	// yields 0 in Go, emptying the word as required.
	word := bm[w] & (^uint64(0) << (uint(v)&63 + 1))
	for j := 1; j < len(dst); j++ {
		for word == 0 {
			w++
			word = bm[w]
		}
		dst[j] = int32(w<<6|bits.TrailingZeros64(word)) + rebase
		word &= word - 1
	}
}

// blockFreqs decodes the per-doc frequencies of skip block k into
// dst[:blockLen(k)].
func (fl *frozenList) blockFreqs(k int, dst []int32) {
	c := golomb.NewCodec(fl.freqM)
	r := golomb.BitReaderAt(fl.freqData, int(fl.skipFreqBits[k]))
	for j := range dst {
		f, err := c.Read(&r)
		if err != nil {
			panic("searchsim: frozen freq stream corrupt: " + err.Error())
		}
		dst[j] = int32(f) + 1
	}
}

// posReader walks one skip block's position stream a doc at a time.
type posReader struct {
	r golomb.BitReader
	c golomb.Codec
}

// blockPositions returns a reader at the first position of skip block k.
func (fl *frozenList) blockPositions(k int) posReader {
	return posReader{r: golomb.BitReaderAt(fl.posData, int(fl.skipPosBits[k])), c: golomb.NewCodec(fl.posM)}
}

// next decodes the next doc's freq positions and appends them to dst.
func (pr *posReader) next(dst []int32, freq int32) []int32 {
	p := int32(-1)
	for ; freq > 0; freq-- {
		g, err := pr.c.Read(&pr.r)
		if err != nil {
			panic("searchsim: frozen position stream corrupt: " + err.Error())
		}
		p += int32(g) + 1
		dst = append(dst, p)
	}
	return dst
}

// termCursor iterates one term's postings in ascending global doc order
// across the view's whole segment stack, with galloping forward seeks over
// either representation within a segment. The cursor binds one segment at a
// time (the per-list state below); when a seek target passes the bound
// segment's doc range — or the segment's list is exhausted — nextSeg
// advances to the next segment holding postings and local doc ids are
// remapped through the segment base. Cursors live in pooled evalScratch;
// init rebinds a cursor without dropping its grown position buffer.
type termCursor struct {
	n int // total doc count across all segments

	v  *view
	id uint32
	si int // index in v.segs of the bound segment

	base   int32 // bound segment's base: global doc = base + local doc
	segEnd int32 // bound segment's exclusive global doc bound

	// raw mode
	pl *postingList
	ri int

	// frozen mode: fl is the bound term's view (nDocs > 0 while bound)
	fl         frozenList
	blk        int // current skip block (-1 before first load)
	blockLen   int
	bi         int // index of the current doc within the block
	docs       [skipInterval]int32
	freqs      [skipInterval]int32
	posOff     [skipInterval + 1]int32
	posBuf     []int32
	pos        posReader // the block's position stream, after doc posDocs-1
	posDocs    int       // docs of this block whose positions are in posBuf
	freqLoaded bool
	posLoaded  bool // pos positioned for this block

	// ppi is the per-doc position-probe cursor used by probePosition; reset
	// whenever the cursor lands on a doc.
	ppi int
}

// init binds the cursor to term id within view v. Reports false when the
// term has no postings in any visible segment (including NoID terms absent
// from the corpus vocabulary).
func (c *termCursor) init(v *view, id uint32) bool {
	c.v, c.id = v, id
	c.pl, c.fl = nil, frozenList{}
	c.si = -1
	c.ppi = 0
	c.n = 0
	if id == noTermID {
		return false
	}
	for _, s := range v.segs {
		c.n += s.df(id)
	}
	if c.n == 0 {
		return false
	}
	return c.nextSeg()
}

// nextSeg binds the next segment (after si) in which the term has postings,
// resetting the per-list state. Reports false when the stack is exhausted.
func (c *termCursor) nextSeg() bool {
	for c.si++; c.si < len(c.v.segs); c.si++ {
		s := c.v.segs[c.si]
		if s.df(c.id) == 0 {
			continue
		}
		c.base, c.segEnd = s.base, s.base+s.nDocs
		c.ri, c.blk, c.bi, c.blockLen = 0, -1, 0, 0
		c.freqLoaded, c.posLoaded = false, false
		c.ppi = 0
		if s.frozen != nil {
			c.fl, c.pl = s.frozen.list(c.id), nil
		} else {
			c.pl, c.fl = s.rawList(c.id), frozenList{}
		}
		return true
	}
	c.pl, c.fl = nil, frozenList{}
	return false
}

// seekGEQ advances to the first global doc >= d (forward-only) and returns
// it. ok is false when every segment's list is exhausted. Within the bound
// segment the per-representation seeks gallop exactly as in the single-
// segment engine; segments whose range ends before d are skipped whole.
func (c *termCursor) seekGEQ(d int32) (doc int32, ok bool) {
	for c.pl != nil || c.fl.nDocs > 0 {
		if d >= c.segEnd {
			if !c.nextSeg() {
				return 0, false
			}
			continue
		}
		local := d - c.base
		if local < 0 {
			local = 0
		}
		var ld int32
		var lok bool
		if c.pl != nil {
			ld, lok = c.seekRaw(local)
		} else {
			ld, lok = c.seekFrozen(local)
		}
		if lok {
			return c.base + ld, true
		}
		if !c.nextSeg() {
			return 0, false
		}
	}
	return 0, false
}

// seekRaw gallops in the uncompressed doc slice from the current offset.
func (c *termCursor) seekRaw(d int32) (int32, bool) {
	docs := c.pl.docs
	i := c.ri
	if i >= len(docs) {
		return 0, false
	}
	if docs[i] < d {
		// Exponential probe, then binary search the bracketed range.
		step := 1
		lo, hi := i+1, len(docs)
		for lo < hi && docs[lo] < d {
			i = lo
			lo += step
			step <<= 1
		}
		if lo > hi {
			lo = hi
		}
		i = i + 1 + sort.Search(lo-(i+1), func(k int) bool { return docs[i+1+k] >= d })
		if i >= len(docs) {
			c.ri = i
			return 0, false
		}
	}
	c.ri = i
	c.ppi = 0
	return docs[i], true
}

// seekFrozen gallops via the skip table, decoding at most one block of doc
// gaps per landing block.
func (c *termCursor) seekFrozen(d int32) (int32, bool) {
	fl := &c.fl
	// Fast path: the target is inside the currently-loaded block.
	if c.blk >= 0 && c.blockLen > 0 && c.docs[c.blockLen-1] >= d {
		for j := c.bi; j < c.blockLen; j++ {
			if c.docs[j] >= d {
				c.bi = j
				c.ppi = 0
				return c.docs[j], true
			}
		}
	}
	// Locate the first candidate block at or after the current one.
	nblk := fl.nblocks()
	k := 0
	if c.blk >= 0 {
		k = c.blk + 1
	}
	// Binary search: last block whose first doc is <= d.
	lo := sort.Search(nblk-k, func(i int) bool { return fl.skipFirstDoc[k+i] > d })
	blk := k + lo - 1
	if blk < k {
		blk = k
	}
	for ; blk < nblk; blk++ {
		if blk != c.blk {
			c.loadBlock(blk)
		}
		for j := 0; j < c.blockLen; j++ {
			if c.docs[j] >= d {
				c.bi = j
				c.ppi = 0
				return c.docs[j], true
			}
		}
	}
	c.blockLen = 0
	return 0, false
}

// loadBlock decodes the doc ids of skip block k into the block buffer.
func (c *termCursor) loadBlock(k int) {
	c.blk, c.blockLen, c.bi = k, c.fl.blockLen(k), 0
	c.freqLoaded, c.posLoaded = false, false
	c.fl.blockDocs(k, c.docs[:c.blockLen], 0)
}

// loadFreqs decodes the per-doc frequencies of the current block.
func (c *termCursor) loadFreqs() {
	c.fl.blockFreqs(c.blk, c.freqs[:c.blockLen])
	c.freqLoaded = true
}

// loadPositionsThrough decodes positions lazily: the block's position
// stream is sequential, so reaching doc index bi means decoding docs
// [posDocs, bi] — but never the rest of the block. Candidates the
// intersection skips past cost nothing beyond their doc gaps.
func (c *termCursor) loadPositionsThrough(bi int) {
	if !c.posLoaded {
		if !c.freqLoaded {
			c.loadFreqs()
		}
		c.pos = c.fl.blockPositions(c.blk)
		c.posBuf = c.posBuf[:0]
		c.posDocs = 0
		c.posOff[0] = 0
		c.posLoaded = true
	}
	for c.posDocs <= bi {
		c.posBuf = c.pos.next(c.posBuf, c.freqs[c.posDocs])
		c.posDocs++
		c.posOff[c.posDocs] = int32(len(c.posBuf))
	}
}

// freq returns the occurrence count in the current doc.
func (c *termCursor) freq() int32 {
	if c.pl != nil {
		return c.pl.end(c.ri) - c.pl.starts[c.ri]
	}
	if !c.freqLoaded {
		c.loadFreqs()
	}
	return c.freqs[c.bi]
}

// positions returns the ascending token positions of the current doc. The
// slice aliases cursor-owned storage and is valid until the cursor moves.
func (c *termCursor) positions() []int32 {
	if c.pl != nil {
		return c.pl.positions[c.pl.starts[c.ri]:c.pl.end(c.ri)]
	}
	if c.posDocs <= c.bi || !c.posLoaded {
		c.loadPositionsThrough(c.bi)
	}
	return c.posBuf[c.posOff[c.bi]:c.posOff[c.bi+1]]
}

// probePosition reports whether the current doc contains token position
// target. Probes within one doc must ascend; the merge cursor ppi resets on
// every doc landing, making a full per-doc check O(freq) amortized.
func (c *termCursor) probePosition(target int32) bool {
	ps := c.positions()
	for c.ppi < len(ps) && ps[c.ppi] < target {
		c.ppi++
	}
	return c.ppi < len(ps) && ps[c.ppi] == target
}

// scoredHit is one ranked phrase hit: the document, the position of its
// first phrase occurrence, and its score.
type scoredHit struct {
	doc   int32
	first int32
	score float64
}

// evalScratch is the pooled per-query working set: interned ids, one cursor
// per phrase term, the ranked-hit buffer and a document's decoded tokens.
// Frozen evaluation decodes into the cursors' reusable buffers, keeping
// queries allocation-light.
type evalScratch struct {
	ids     []uint32
	cursors []termCursor
	top     []scoredHit // topHits' buffer
	toks    []uint32    // a result document's decoded token ids (visitHits)
}

// The three query evaluators share one leapfrog: bind points a cursor at
// each term and picks the rarest as the driver, follow gallops the other
// cursors to the driver's document, and occurrences probes that document's
// offset-shifted position lists.

// bind points one pooled cursor at each term of ids and returns them with
// the driver, the rarest term. ok is false when ids is empty or some term
// has no visible postings, so no document contains them all.
//
//kw:hotpath
func (v *view) bind(ids []uint32, sc *evalScratch) (cs []termCursor, drv int, ok bool) {
	k := len(ids)
	if k == 0 {
		return nil, 0, false
	}
	if cap(sc.cursors) < k {
		sc.cursors = append(sc.cursors[:cap(sc.cursors)], make([]termCursor, k-cap(sc.cursors))...)
	}
	cs = sc.cursors[:k]
	for i, id := range ids {
		if !cs[i].init(v, id) {
			return nil, 0, false
		}
		if cs[i].n < cs[drv].n {
			drv = i
		}
	}
	return cs, drv, true
}

// follow gallops every cursor but the driver to doc, the driver's document,
// and returns doc when they all land on it, or else the first overshoot:
// the driver's next target. ok is false when some cursor is exhausted.
func follow(cs []termCursor, drv int, doc int32) (int32, bool) {
	for i := range cs {
		if i == drv {
			continue
		}
		if d2, ok := cs[i].seekGEQ(doc); !ok || d2 > doc {
			return d2, ok
		}
	}
	return doc, true
}

// align returns the first document >= d that every cursor contains, with
// every cursor landed on it: the driver proposes, the others follow, and an
// overshoot becomes the driver's next target.
//
//kw:hotpath
func align(cs []termCursor, drv int, d int32) (int32, bool) {
	for {
		doc, ok := cs[drv].seekGEQ(d)
		if !ok {
			return 0, false
		}
		if d, ok = follow(cs, drv, doc); !ok {
			return 0, false
		}
		if d == doc {
			return doc, true
		}
	}
}

// occurrences counts the phrase occurrences in the document every cursor is
// on — positions p of the first term with term j at p+j — and returns the
// position of the first. It stops once limit are found (0 counts them all).
//
//kw:hotpath
func occurrences(cs []termCursor, limit int) (count int, first int32) {
	first = -1
	for i := range cs {
		cs[i].ppi = 0
	}
	for _, p := range cs[0].positions() {
		j := 1
		for j < len(cs) && cs[j].probePosition(p+int32(j)) {
			j++
		}
		if j < len(cs) {
			continue
		}
		if count == 0 {
			first = p
		}
		count++
		if count == limit {
			break
		}
	}
	return count, first
}

// topHits evaluates the exact-phrase query terms, interned as ids, and
// returns its k best hits in rank order, (score desc, doc asc); every hit
// when k <= 0. A hit's score is the tf·idf-flavoured
// formula: its phrase occurrences weighted by the rarity of the phrase's
// terms, normalized by document length. The idf sum runs over terms in
// query order so float accumulation is reproducible.
//
// Once k hits are held, a document is skipped as soon as a bound shows it
// cannot displace the k-th: first the driver's frequency, before the other
// cursors gallop, then the least frequency over all terms, before
// occurrences probes its positions. Pruning saves those gallops and
// probes, but not all position decoding: a frozen cursor decodes a block's
// positions up to the document asked about, pruned ones before it
// included, so a block is spared only what follows its last probed
// document.
//
// The bound is exact. A document's occurrence count never exceeds any of
// its terms' frequencies, and the score is that count times a positive
// weight over a positive norm, so the same arithmetic on a frequency
// bounds it: floating-point multiply and divide by one positive value are
// monotone. A document whose bound only equals the k-th score cannot
// enter either, because hits arrive in ascending doc order and an equal
// score ranks the lower doc first. So the hits, their scores and their
// order are the exhaustive ranking's first k.
//
// The returned slice aliases sc.top.
//
//kw:hotpath
func (v *view) topHits(terms []string, ids []uint32, k int, sc *evalScratch) []scoredHit {
	cs, drv, ok := v.bind(ids, sc)
	if !ok {
		return nil
	}
	idf := 0.0
	for _, t := range terms {
		idf += v.idf(t)
	}
	top := sc.top[:0]
	for d := int32(0); ; {
		doc, ok := cs[drv].seekGEQ(d)
		if !ok {
			break
		}
		d = doc + 1
		norm := 1 + float64(v.lens[doc])/200
		full := k > 0 && len(top) == k
		if full && float64(cs[drv].freq())*idf/norm <= top[k-1].score {
			continue
		}
		if next, ok := follow(cs, drv, doc); !ok {
			break
		} else if next != doc {
			d = next
			continue
		}
		if full && float64(minFreq(cs))*idf/norm <= top[k-1].score {
			continue
		}
		count, first := occurrences(cs, 0)
		if count == 0 {
			continue
		}
		h := scoredHit{doc: doc, first: first, score: float64(count) * idf / norm}
		if k <= 0 {
			top = append(top, h)
			continue
		}
		i := len(top)
		for i > 0 && top[i-1].score < h.score {
			i--
		}
		if i == k {
			continue
		}
		if !full {
			top = append(top, h)
		}
		copy(top[i+1:], top[i:])
		top[i] = h
	}
	if k <= 0 {
		slices.SortFunc(top, func(a, b scoredHit) int {
			if c := cmp.Compare(b.score, a.score); c != 0 {
				return c
			}
			return cmp.Compare(a.doc, b.doc)
		})
	}
	sc.top = top
	return top
}

// minFreq returns the least occurrence count of the cursors' terms in the
// document they are all on.
func minFreq(cs []termCursor) int32 {
	f := cs[0].freq()
	for i := 1; i < len(cs); i++ {
		f = min(f, cs[i].freq())
	}
	return f
}

// countPhraseDocs returns the number of docs containing the phrase at least
// once — the ResultCount kernel. Unlike topHits it never ranks hits: a
// single term is answered from the document frequency alone (no position
// decode), and a candidate stops probing at its first occurrence.
//
//kw:hotpath
func (v *view) countPhraseDocs(ids []uint32, sc *evalScratch) int {
	cs, drv, ok := v.bind(ids, sc)
	if !ok {
		return 0
	}
	if len(cs) == 1 {
		// Every posting is an occurrence: the answer is the doc frequency.
		return cs[0].n
	}
	n := 0
	for doc, ok := align(cs, drv, 0); ok; doc, ok = align(cs, drv, doc+1) {
		if count, _ := occurrences(cs, 1); count > 0 {
			n++
		}
	}
	return n
}

// intersectCount returns the number of docs containing every listed term
// (any order, no position constraint) — the any-order query path. It never
// touches position streams.
//
//kw:hotpath
func (v *view) intersectCount(ids []uint32, sc *evalScratch) int {
	cs, drv, ok := v.bind(ids, sc)
	if !ok {
		return 0
	}
	n := 0
	for doc, ok := align(cs, drv, 0); ok; doc, ok = align(cs, drv, doc+1) {
		n++
	}
	return n
}

var scratchPool = sync.Pool{New: func() any { return new(evalScratch) }}

func getScratch() *evalScratch  { return scratchPool.Get().(*evalScratch) }
func putScratch(s *evalScratch) { scratchPool.Put(s) }
