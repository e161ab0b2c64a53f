package searchsim

// Bulk parallel indexing (DESIGN.md §10). BuildCorpus has the whole corpus in
// hand, so instead of funnelling every document through Add on one goroutine
// — a serial intern-and-append pass that dominates the build wall-clock and
// flattens the internal/par speedup curve — newBulkEngine builds the
// compressed base segment directly, in a pipeline whose only serial work is
// O(distinct terms + docs):
//
//  1. (parallel) chunk-local interning: each worker walks its contiguous
//     chunk of documents — token ids into the build's token table, as
//     BuildCorpus's generation shards wrote them — recording the chunk's
//     distinct tokens in first-occurrence order in a dense table-id-indexed
//     seen set;
//  2. (serial) vocabulary merge: every chunk's distinct tokens are interned
//     into the engine vocabulary in chunk order. Because chunks are
//     contiguous document ranges and each chunk's token list is in
//     first-occurrence order, the assigned ids equal the ids a serial Add
//     loop would have produced, bit for bit;
//  3. (parallel) id rewrite: each chunk writes its documents' engine ids
//     into one buffer of its own and sums their uvarint-coded size;
//  4. (parallel) posting build: each worker counts its chunk's postings per
//     engine id and fills exact-size chunk-local posting lists, carved from
//     three arenas;
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

	"contextrank/internal/match"
	"contextrank/internal/par"
	"contextrank/internal/textproc"
)

// indexChunk is the contiguous doc range [lo, hi) owned by one worker during
// a bulk index pass, plus its intermediate per-chunk state.
type indexChunk struct {
	lo, hi int
	toks   []uint32      // chunk-distinct table ids in first-occurrence order
	lists  []postingList // engine id -> chunk-local postings
	off    int           // where the chunk's documents start in the arena
	size   int           // their uvarint-coded bytes
}

// newBulkEngine builds a live engine whose published view is one frozen
// segment over docs, whose ids are into the token table tokens, fanned out
// across GOMAXPROCS workers.
func newBulkEngine(tokens *match.Vocab, docs []rawDoc) *Engine {
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
	nTable := tokens.Len()
	par.For(w, w, func(ci int) {
		ck := &chunks[ci]
		seen := make([]bool, nTable)
		for di := ck.lo; di < ck.hi; di++ {
			for _, t := range docs[di].ids {
				if !seen[t] {
					seen[t] = true
					ck.toks = append(ck.toks, t)
				}
			}
		}
	})

	// Phase 2: serial vocabulary merge in chunk order (see the file comment
	// for why this reproduces the serial id assignment exactly). A token
	// already merged from an earlier chunk keeps its id, so only a token's
	// first chunk probes the vocabulary.
	engineID := make([]uint32, nTable) // table id -> engine id + 1
	for ci := range chunks {
		for _, t := range chunks[ci].toks {
			if engineID[t] == 0 {
				engineID[t] = e.vocab.Intern(tokens.Token(t)) + 1
			}
		}
	}
	nTerms := e.vocab.Len()

	// Phase 3: each chunk's documents in engine ids, sizing their encoding.
	tokenIDs := make([][]uint32, nd)
	par.For(w, w, func(ci int) {
		ck := &chunks[ci]
		n := 0
		for di := ck.lo; di < ck.hi; di++ {
			n += len(docs[di].ids)
		}
		buf := make([]uint32, n)
		for di := ck.lo; di < ck.hi; di++ {
			ids := buf[:len(docs[di].ids):len(docs[di].ids)]
			buf = buf[len(ids):]
			for p, t := range docs[di].ids {
				ids[p] = engineID[t] - 1
				ck.size += uvarintLen(ids[p])
			}
			tokenIDs[di] = ids
		}
	})

	// Phase 4: chunk-local posting lists keyed by engine id, each carved at
	// its exact size from three chunk arenas, so filling them allocates
	// nothing.
	par.For(w, w, func(ci int) {
		ck := &chunks[ci]
		nDocs, nPos := make([]int32, nTerms), make([]int32, nTerms)
		last := make([]int32, nTerms) // last doc counted + 1
		var sumDocs, sumPos int
		for di := ck.lo; di < ck.hi; di++ {
			for _, tid := range tokenIDs[di] {
				nPos[tid]++
				if last[tid] != int32(di)+1 {
					last[tid] = int32(di) + 1
					nDocs[tid]++
					sumDocs++
				}
			}
			sumPos += len(tokenIDs[di])
		}
		docArena, startArena, posArena := make([]int32, sumDocs), make([]int32, sumDocs), make([]int32, sumPos)
		ck.lists = make([]postingList, nTerms)
		for t := range ck.lists {
			d, p := nDocs[t], nPos[t]
			ck.lists[t] = postingList{docs: docArena[:0:d], starts: startArena[:0:d], positions: posArena[:0:p]}
			docArena, startArena, posArena = docArena[d:], startArena[d:], posArena[p:]
		}
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
	e.lens = make([]int32, nd)
	par.For(w, w, func(ci int) {
		off := chunks[ci].off
		for di := chunks[ci].lo; di < chunks[ci].hi; di++ {
			start := off
			for _, id := range tokenIDs[di] {
				off += binary.PutUvarint(arena[off:], uint64(id))
			}
			e.docs[di] = docRec{toks: arena[start:off:off], topic: int32(docs[di].topic)}
			e.lens[di] = int32(len(tokenIDs[di]))
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
