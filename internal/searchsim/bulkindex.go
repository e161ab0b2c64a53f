package searchsim

// Bulk parallel indexing (DESIGN.md §10). BuildCorpus has the whole corpus in
// hand, so instead of funnelling every document through Add on one goroutine
// — a serial intern-and-append pass that dominates the build wall-clock and
// flattens the internal/par speedup curve — newBulkEngine builds the
// compressed base segment directly, in a pipeline whose only serial work is
// O(distinct terms + docs):
//
//  1. (parallel) chunk-local interning: each worker interns its contiguous
//     chunk of documents against a private vocabulary, recording the chunk's
//     distinct tokens in first-occurrence order;
//  2. (serial) vocabulary merge: every chunk's distinct tokens are interned
//     into the engine vocabulary in chunk order. Because chunks are
//     contiguous document ranges and each chunk's token list is in
//     first-occurrence order, the assigned ids equal the ids a serial Add
//     loop would have produced, bit for bit;
//  3. (parallel) id rewrite: per-doc local ids become engine ids in place,
//     and each chunk sums its documents' uvarint-coded size;
//  4. (parallel) posting build: each worker builds chunk-local posting lists
//     over engine ids;
//  5. (parallel) documents: one exact-size arena for every document's token
//     ids, each chunk encoding into its share (doc.go); then (serial) the
//     stopword table — a term's document frequency needs no table of its
//     own: it is the doc count in its term header;
//  6. (parallel) freezeTerms concatenates every term's chunk lists in chunk
//     (= ascending doc) order into one reused scratch list per encode chunk
//     and compresses it with the Golomb delta coder (or a doc bitmap for
//     dense terms) into the frozen arenas; then the serial size accounting,
//     and the base frozen segment is published.
//
// Every phase is deterministic in content (worker scheduling only changes
// who computes what, never the result; a term's frozen bytes are a pure
// function of its postings), so the engine is bit-identical at any
// GOMAXPROCS, and its frozen segment equals that of Add + Commit +
// CompactAll over the same documents. TestBulkIndexMatchesSerial pins both.

import (
	"encoding/binary"

	"contextrank/internal/par"
	"contextrank/internal/textproc"
)

// indexChunk is the contiguous doc range [lo, hi) owned by one worker during
// a bulk index pass, plus its intermediate per-chunk state.
type indexChunk struct {
	lo, hi int
	toks   []string      // chunk-distinct tokens in first-occurrence order
	remap  []uint32      // chunk-local id -> engine vocab id
	lists  []postingList // engine id -> chunk-local postings
	off    int           // where the chunk's documents start in the arena
	size   int           // their uvarint-coded bytes
}

// newBulkEngine builds a live engine whose published view is one frozen
// segment over the pre-tokenized documents, fanned out across GOMAXPROCS
// workers.
func newBulkEngine(docs []rawDoc) *Engine {
	e := NewEngine()
	nd := len(docs)
	if nd == 0 {
		return e
	}
	w := par.Workers(0)
	if w > nd {
		w = nd
	}

	chunks := make([]indexChunk, w)
	for i := range chunks {
		chunks[i].lo = i * nd / w
		chunks[i].hi = (i + 1) * nd / w
	}

	// Phase 1: chunk-local interning.
	tokenIDs := make([][]uint32, nd)
	par.For(w, w, func(ci int) {
		ck := &chunks[ci]
		local := make(map[string]uint32)
		for di := ck.lo; di < ck.hi; di++ {
			toks := docs[di].tokens
			ids := make([]uint32, len(toks))
			for p, t := range toks {
				id, ok := local[t]
				if !ok {
					id = uint32(len(ck.toks))
					local[t] = id
					ck.toks = append(ck.toks, t)
				}
				ids[p] = id
			}
			tokenIDs[di] = ids
		}
	})

	// Phase 2: serial vocabulary merge in chunk order (see the file comment
	// for why this reproduces the serial id assignment exactly).
	for ci := range chunks {
		ck := &chunks[ci]
		ck.remap = make([]uint32, len(ck.toks))
		for j, t := range ck.toks {
			ck.remap[j] = e.vocab.Intern(t)
		}
	}
	nTerms := e.vocab.Len()

	// Phase 3: rewrite local ids to engine ids, sizing their encoding.
	par.For(w, w, func(ci int) {
		ck := &chunks[ci]
		for di := ck.lo; di < ck.hi; di++ {
			ids := tokenIDs[di]
			for p := range ids {
				ids[p] = ck.remap[ids[p]]
				ck.size += uvarintLen(ids[p])
			}
		}
	})

	// Phase 4a: chunk-local posting lists keyed by engine id.
	par.For(w, w, func(ci int) {
		ck := &chunks[ci]
		ck.lists = make([]postingList, nTerms)
		for di := ck.lo; di < ck.hi; di++ {
			for pos, tid := range tokenIDs[di] {
				ck.lists[tid].add(int32(di), int32(pos))
			}
		}
	})

	// Phase 5: documents, stopword table.
	for ci := 1; ci < w; ci++ {
		chunks[ci].off = chunks[ci-1].off + chunks[ci-1].size
	}
	arena := make([]byte, chunks[w-1].off+chunks[w-1].size)
	e.docs = make([]docRec, nd)
	par.For(w, w, func(ci int) {
		off := chunks[ci].off
		for di := chunks[ci].lo; di < chunks[ci].hi; di++ {
			start := off
			for _, id := range tokenIDs[di] {
				off += binary.PutUvarint(arena[off:], uint64(id))
			}
			e.docs[di] = docRec{toks: arena[start:off:off], n: int32(len(tokenIDs[di])), topic: int32(docs[di].topic)}
		}
	})
	e.forward = len(arena)
	e.stopID = make([]bool, nTerms)
	for t := range e.stopID {
		e.stopID[t] = textproc.IsStopword(e.vocab.Token(uint32(t)))
	}

	// Phase 6: per-term concatenation in chunk order, compression,
	// accounting. Chunks hold ascending disjoint doc ranges, so appending
	// chunk lists in chunk order keeps doc ids ascending.
	fx := freezeTerms(0, nTerms, func(t int, pl *postingList) {
		for ci := range chunks {
			pl.appendPostings(&chunks[ci].lists[t], 0)
		}
	})
	for t := range fx.terms {
		h := &fx.terms[t]
		e.stats.Postings += int(h.nDocs)
		e.stats.Positions += int(h.nPos)
		if h.nWords > 0 {
			e.stats.BitmapTerms++
		}
	}
	// Each raw posting is a doc id and a start offset; each position one int32.
	e.stats.RawBytes = 4 * (2*e.stats.Postings + e.stats.Positions)
	e.stats.FrozenBytes = fx.frozenBytes()
	e.mu.Lock()
	e.segs = []*segment{newFrozenSegment(0, int32(nd), fx)}
	e.memBase = int32(nd)
	e.publishLocked()
	e.mu.Unlock()
	return e
}
