package searchsim

// The frozen segment's layout (DESIGN.md §10). A frozen segment holds one
// dense table of termHeader, indexed by term id, and three arenas every
// term's postings are packed into:
//
//   - stream: each term's doc, freq and pos Golomb streams, back to back,
//     each padded to a byte (the bytes a per-term BitWriter would emit);
//   - skips: each term's skip entries — the block-first docs, then (Golomb
//     doc stream only) the doc-stream bit offsets, then the freq and pos
//     bit offsets, one int32 per block each;
//   - words: each bitmap term's doc bitmap.
//
// The header carries the two counts, the three Golomb parameters and the
// term's offsets and lengths into the arenas; a term's span in each arena
// starts where the previous term's ends, so the spans tile every arena
// and each arena is allocated at its exact size once. frozenList is the
// decoders' view of one term, rebuilt from the header on every bind.
//
// freezeTerms encodes fixed-size chunks of terms in parallel, each into
// arenas of its own, then concatenates the chunks in term order. Chunk
// boundaries depend on term index only, and a term's bytes depend only on
// its postings, so a segment's header table and arenas are a pure function
// of its postings at any worker count — and the bulk build and a full
// merge of the same documents produce the same segment.

import (
	"fmt"
	"math"
	"slices"
	"unsafe"

	"contextrank/internal/golomb"
	"contextrank/internal/par"
)

// termHeader is one term's record in a frozen segment. A term without
// postings in the segment has nDocs 0 and empty spans.
type termHeader struct {
	nDocs, nPos       int32  // documents and token occurrences
	docM, freqM, posM uint32 // Golomb parameters of the three streams

	stream                  uint32 // offset of the doc stream in the stream arena; freq and pos follow it
	docLen, freqLen, posLen uint32 // byte lengths of the three streams (docLen 0 for a bitmap term)
	skip                    uint32 // offset of the term's skip entries in the skip arena
	words, nWords           uint32 // span of the doc bitmap in the word arena; nWords 0 for a Golomb doc stream
}

// frozenIndex is a frozen segment's postings: the term header table and
// the three arenas it points into.
type frozenIndex struct {
	terms  []termHeader // by term id
	stream []byte
	skips  []int32
	words  []uint64
}

// freezeChunkTerms is the number of terms one encode task covers. Part of
// the build's determinism only through the term ranges it fixes; the
// encoded bytes do not depend on it.
const freezeChunkTerms = 256

// list returns the decoders' view of term id.
func (fx *frozenIndex) list(id uint32) frozenList {
	h := &fx.terms[id]
	s := fx.stream[h.stream : h.stream+h.docLen+h.freqLen+h.posLen]
	fl := frozenList{
		nDocs:    h.nDocs,
		docM:     h.docM,
		freqM:    h.freqM,
		posM:     h.posM,
		docData:  s[:h.docLen],
		freqData: s[h.docLen : h.docLen+h.freqLen],
		posData:  s[h.docLen+h.freqLen:],
	}
	nblk := (int(h.nDocs) + skipInterval - 1) / skipInterval
	sk := fx.skips[h.skip:]
	fl.skipFirstDoc, sk = sk[:nblk], sk[nblk:]
	if h.nWords > 0 {
		fl.docBits = fx.words[h.words : h.words+h.nWords]
	} else {
		fl.skipDocBits, sk = sk[:nblk], sk[nblk:]
	}
	fl.skipFreqBits, fl.skipPosBits = sk[:nblk], sk[nblk:2*nblk]
	return fl
}

// frozenBytes is the compressed payload: stream bytes, skip entries and
// bitmap words — the IndexStats.FrozenBytes definition. Term headers are
// excluded; residentBytes counts them.
func (fx *frozenIndex) frozenBytes() int {
	return len(fx.stream) + 4*len(fx.skips) + 8*len(fx.words)
}

// residentBytes is what the segment's postings hold in memory: the header
// table and the three arenas, by capacity.
func (fx *frozenIndex) residentBytes() int {
	return int(unsafe.Sizeof(termHeader{}))*cap(fx.terms) + cap(fx.stream) + 4*cap(fx.skips) + 8*cap(fx.words)
}

// docParam is the Golomb parameter of a doc-gap stream over docs (the
// classic M ≈ 0.69·mean rule; see golomb.OptimalM).
func docParam(docs []int32) uint32 {
	n := len(docs)
	return golomb.OptimalM(float64(docs[n-1]+1) / float64(n))
}

// bitmapSmaller reports whether a doc bitmap is strictly smaller than the
// Golomb doc stream plus the per-block bit offsets it replaces, so the
// representation choice can only shrink FrozenBytes. The Golomb size is
// exact: Codec.Cost is the bit count Write emits.
func bitmapSmaller(pl *postingList) bool {
	n := len(pl.docs)
	if n == 0 {
		return false
	}
	c := golomb.NewCodec(docParam(pl.docs))
	nbits := 0
	for i := 1; i < n; i++ {
		if i%skipInterval != 0 {
			nbits += c.Cost(uint32(pl.docs[i] - pl.docs[i-1] - 1))
		}
	}
	nblk := (n + skipInterval - 1) / skipInterval
	return 8*(int(pl.docs[n-1])/64+1) < (nbits+7)/8+4*nblk
}

// appendTerm encodes pl onto the end of fx: its header onto the table, its
// streams, skip entries and (when bitmap) doc bitmap onto the arenas.
func (fx *frozenIndex) appendTerm(pl *postingList, bitmap bool) {
	n := len(pl.docs)
	h := termHeader{
		nDocs:  int32(n),
		nPos:   int32(len(pl.positions)),
		stream: uint32(len(fx.stream)),
		skip:   uint32(len(fx.skips)),
		words:  uint32(len(fx.words)),
	}
	if n == 0 {
		fx.terms = append(fx.terms, h)
		return
	}
	h.docM = docParam(pl.docs)
	h.freqM = golomb.OptimalM(float64(len(pl.positions)-n) / float64(n))
	var posSum int64
	for i := 0; i < n; i++ {
		prev := int32(-1)
		for _, p := range pl.positions[pl.starts[i]:pl.end(i)] {
			posSum += int64(p - prev - 1)
			prev = p
		}
	}
	h.posM = golomb.OptimalM(float64(posSum) / float64(len(pl.positions)))

	for i := 0; i < n; i += skipInterval {
		fx.skips = append(fx.skips, pl.docs[i])
	}
	// The three streams share one writer, restarted on a fresh byte per
	// stream; each block's first doc gets a skip entry per stream, the
	// stream's bit offset there.
	w := golomb.AppendBitWriter(fx.stream)
	if bitmap {
		last := int(pl.docs[n-1])
		h.nWords = uint32(last/64 + 1)
		lo := len(fx.words)
		fx.words = slices.Grow(fx.words, int(h.nWords))[:lo+int(h.nWords)]
		bm := fx.words[lo:]
		clear(bm)
		for _, d := range pl.docs {
			bm[d>>6] |= 1 << (uint(d) & 63)
		}
	} else {
		start, c := w.BitLen(), golomb.NewCodec(h.docM)
		for i := 0; i < n; i++ {
			if i%skipInterval == 0 {
				fx.skips = append(fx.skips, int32(w.BitLen()-start))
			} else {
				c.Write(&w, uint32(pl.docs[i]-pl.docs[i-1]-1))
			}
		}
		w = golomb.AppendBitWriter(w.Bytes())
	}
	h.docLen = uint32(len(w.Bytes())) - h.stream

	start, c := w.BitLen(), golomb.NewCodec(h.freqM)
	for i := 0; i < n; i++ {
		if i%skipInterval == 0 {
			fx.skips = append(fx.skips, int32(w.BitLen()-start))
		}
		c.Write(&w, uint32(pl.end(i)-pl.starts[i]-1))
	}
	w = golomb.AppendBitWriter(w.Bytes())
	h.freqLen = uint32(len(w.Bytes())) - h.stream - h.docLen

	start, c = w.BitLen(), golomb.NewCodec(h.posM)
	for i := 0; i < n; i++ {
		if i%skipInterval == 0 {
			fx.skips = append(fx.skips, int32(w.BitLen()-start))
		}
		prev := int32(-1)
		for _, p := range pl.positions[pl.starts[i]:pl.end(i)] {
			c.Write(&w, uint32(p-prev-1))
			prev = p
		}
	}
	fx.stream = w.Bytes()
	h.posLen = uint32(len(fx.stream)) - h.stream - h.docLen - h.freqLen
	fx.terms = append(fx.terms, h)
}

// freezeTerms builds the frozen postings of terms [0, nTerms): fill(t, pl)
// appends term t's postings to the empty list pl, and each term is encoded
// in the representation bitmapSmaller picks. Chunks of freezeChunkTerms
// terms are encoded in parallel (internal/par width semantics), each
// reusing one scratch list and growing arenas of its own, so allocations
// scale with the number of chunks; the chunks are then concatenated into
// exact-size arenas.
func freezeTerms(workers, nTerms int, fill func(t int, pl *postingList)) *frozenIndex {
	terms := make([]termHeader, nTerms)
	parts := make([]frozenIndex, (nTerms+freezeChunkTerms-1)/freezeChunkTerms)
	par.For(workers, len(parts), func(c int) {
		lo, hi := c*freezeChunkTerms, min((c+1)*freezeChunkTerms, nTerms)
		part := &parts[c]
		part.terms = terms[lo:lo:hi] // headers land in place in the final table
		var pl postingList
		for t := lo; t < hi; t++ {
			pl.docs, pl.starts, pl.positions = pl.docs[:0], pl.starts[:0], pl.positions[:0]
			fill(t, &pl)
			part.appendTerm(&pl, bitmapSmaller(&pl))
		}
	})
	return concatParts(workers, terms, parts)
}

// concatParts packs the chunks' arenas into one exact-size arena each, in
// chunk order, and shifts every chunk's header offsets by the chunk's start.
// It panics when an arena outgrows the headers' uint32 offsets.
func concatParts(workers int, terms []termHeader, parts []frozenIndex) *frozenIndex {
	type base struct{ stream, skips, words int }
	bases := make([]base, len(parts))
	var end base
	for c := range parts {
		bases[c] = end
		end.stream += len(parts[c].stream)
		end.skips += len(parts[c].skips)
		end.words += len(parts[c].words)
	}
	if end.stream > math.MaxUint32 || end.skips > math.MaxUint32 || end.words > math.MaxUint32 {
		panic(fmt.Sprintf("searchsim: frozen segment arenas (%d stream bytes, %d skip entries, %d bitmap words) overflow uint32 offsets",
			end.stream, end.skips, end.words))
	}
	fx := &frozenIndex{
		terms:  terms,
		stream: make([]byte, end.stream),
		skips:  make([]int32, end.skips),
		words:  make([]uint64, end.words),
	}
	par.For(workers, len(parts), func(c int) {
		p, b := &parts[c], bases[c]
		copy(fx.stream[b.stream:], p.stream)
		copy(fx.skips[b.skips:], p.skips)
		copy(fx.words[b.words:], p.words)
		for i := range p.terms {
			h := &p.terms[i]
			h.stream += uint32(b.stream)
			h.skip += uint32(b.skips)
			h.words += uint32(b.words)
		}
	})
	return fx
}
