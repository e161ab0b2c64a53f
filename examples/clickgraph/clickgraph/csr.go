// Frozen adjacency layout. Each side of the bipartite graph stores its
// rows in chunkCount independent byte streams (chunks), encoded in
// parallel and never concatenated, so freezing needs no bit-shifting merge
// and is bit-identical at any worker count. Per row the stream holds:
//
//	deg          Golomb(degM)           row length; empty rows stop here
//	bitmap flag  1 raw bit
//	— gap rows (flag 0) —
//	first nbr    Golomb(M_row)          the id itself, M_row derived from
//	                                    (universe, deg) — never stored
//	restart      absW raw bits          every skipSpan-th neighbor, absolute
//	gap−1        Golomb(M_row)          remaining neighbors
//	clicks−1     Golomb(wM)             after each neighbor, interleaved
//	— bitmap rows (flag 1) —
//	words        ⌈universe/64⌉ × 64 raw bits
//	clicks−1     Golomb(wM)             one per set bit, ascending
//
// Offsets are per GROUP of offGroup rows (offGroup = 8 on short-row sides,
// 1 on long-row sides): off[r/offGroup] is the chunk-relative bit offset
// of the group's first row, and rows are self-delimiting, so a reader
// skips at most offGroup−1 predecessor rows to open row r. This trades a
// bounded skip for shrinking the dominant table of the story side (one
// uint32 per 8 six-edge rows instead of one per row). Chunk assignment is
// group-aligned; the chunk index is row/rowsPerChunk.
//
// Rows with deg > skipSpan also carry skip-table entries (absolute
// neighbor + bit offset per restart) so a seek inside a long row decodes
// at most skipSpan−1 gaps. A row is stored as a bitmap exactly when
// words×64 < gap-stream bits + 64 bits per skip entry — the
// strictly-smaller rule of the searchsim postings bitmap.
package clickgraph

import (
	"math/bits"

	"contextrank/internal/golomb"
	"contextrank/internal/par"
)

// side is one direction of the frozen bipartite adjacency.
type side struct {
	n            int    // rows
	universe     uint32 // neighbor id space size
	rowsPerChunk int
	offGroup     int // rows per offset entry (power of two)
	chunks       [][]byte
	off          []uint32 // per group: chunk-relative bit offset of first row
	absW         uint     // raw width of restart neighbor ids
	degC         golomb.Codec
	wC           golomb.Codec
	bitmapRows   int

	// Skip tables, global per side, rows ascending. skipRows[i] is a row
	// with entries skipIdx[i]..skipIdx[i+1] in skipNbr/skipOff; entry k of
	// a row covers the restart at edge (k+1)·skipSpan. skipOff is
	// chunk-relative like off.
	skipRows []uint32
	skipIdx  []uint32
	skipNbr  []uint32
	skipOff  []uint32
}

// offGroupFor picks the offset granularity: short-row sides (story side,
// mean degree under shortRowMeanDeg) amortize one offset over 8 rows;
// long-row sides keep exact per-row offsets.
func offGroupFor(n, edges int) int {
	if n > 0 && float64(edges)/float64(n) < shortRowMeanDeg {
		return 8
	}
	return 1
}

const shortRowMeanDeg = 32

// rowM derives the per-row gap parameter from (universe, deg) — identical
// at encode and decode, so it is never stored.
func rowM(universe uint32, deg int) uint32 {
	return golomb.OptimalM(float64(universe) / float64(deg+1))
}

// absWidth is the raw bit width of an absolute neighbor id.
func absWidth(universe uint32) uint {
	if universe <= 1 {
		return 1
	}
	return uint(bits.Len32(universe - 1))
}

// encodeSide compresses one CSR direction. start/dst/wt is the
// deduplicated forward form (rows sorted, weights ≥ 1); totalClicks sizes
// the global weight parameter.
func encodeSide(universe uint32, start, dst, wt []uint32, totalClicks uint64, workers int) side {
	n := len(start) - 1
	s := side{
		n:        n,
		universe: universe,
		absW:     absWidth(universe),
		offGroup: offGroupFor(n, len(dst)),
	}
	edges := len(dst)
	meanDeg := 0.0
	if n > 0 {
		meanDeg = float64(edges) / float64(n)
	}
	s.degC = golomb.NewCodec(golomb.OptimalM(meanDeg))
	meanW := 0.0
	if edges > 0 {
		meanW = float64(totalClicks-uint64(edges)) / float64(edges)
	}
	s.wC = golomb.NewCodec(golomb.OptimalM(meanW))

	if n == 0 {
		s.rowsPerChunk = 1
		return s
	}
	nChunks := chunkCount
	if nChunks > n {
		nChunks = n
	}
	// Group-aligned chunks: every offset group lives in one chunk.
	rpc := (n + nChunks - 1) / nChunks
	rpc = (rpc + s.offGroup - 1) / s.offGroup * s.offGroup
	s.rowsPerChunk = rpc
	nChunks = (n + rpc - 1) / rpc
	s.chunks = make([][]byte, nChunks)
	s.off = make([]uint32, (n+s.offGroup-1)/s.offGroup)

	type chunkSkip struct {
		rows, idx, nbr, off []uint32
		bitmapRows          int
	}
	skips := make([]chunkSkip, nChunks)

	par.For(workers, nChunks, func(ci int) {
		lo := ci * rpc
		hi := lo + rpc
		if hi > n {
			hi = n
		}
		var bw golomb.BitWriter
		var words []uint64
		cs := &skips[ci]
		cs.idx = append(cs.idx, 0)
		for r := lo; r < hi; r++ {
			row := dst[start[r]:start[r+1]]
			rw := wt[start[r]:start[r+1]]
			deg := len(row)
			if r%s.offGroup == 0 {
				s.off[r/s.offGroup] = uint32(bw.BitLen())
			}
			s.degC.Write(&bw, uint32(deg))
			if deg == 0 {
				continue
			}
			gapC := golomb.NewCodec(rowM(universe, deg))
			// Exact stream cost vs bitmap cost; the flag bit and the
			// weights are identical in both representations and drop out.
			gapBits := 0
			prev := uint32(0)
			for j, v := range row {
				switch {
				case j == 0:
					gapBits += gapC.Cost(v)
				case j%skipSpan == 0:
					gapBits += int(s.absW)
				default:
					gapBits += gapC.Cost(v - prev - 1)
				}
				prev = v
			}
			nSkip := (deg - 1) / skipSpan
			nWords := (int(universe) + 63) / 64
			if nWords*64 < gapBits+64*nSkip {
				// Bitmap row: flag 1, raw words, then weights.
				bw.WriteBit(1)
				cs.bitmapRows++
				if len(words) < nWords {
					words = make([]uint64, nWords)
				}
				w := words[:nWords]
				for i := range w {
					w[i] = 0
				}
				for _, v := range row {
					w[v>>6] |= 1 << (v & 63)
				}
				for _, word := range w {
					bw.WriteBits(word, 64)
				}
				for _, c := range rw {
					s.wC.Write(&bw, c-1)
				}
				continue
			}
			bw.WriteBit(0)
			if nSkip > 0 {
				cs.rows = append(cs.rows, uint32(r))
			}
			prev = 0
			for j, v := range row {
				switch {
				case j == 0:
					gapC.Write(&bw, v)
				case j%skipSpan == 0:
					cs.nbr = append(cs.nbr, v)
					cs.off = append(cs.off, uint32(bw.BitLen()))
					bw.WriteBits(uint64(v), s.absW)
				default:
					gapC.Write(&bw, v-prev-1)
				}
				prev = v
				s.wC.Write(&bw, rw[j]-1)
			}
			if nSkip > 0 {
				cs.idx = append(cs.idx, uint32(len(cs.nbr)))
			}
		}
		s.chunks[ci] = bw.Bytes()
	})

	// Serial merge of per-chunk skip tables in chunk (= row) order.
	s.skipIdx = append(s.skipIdx, 0)
	for ci := range skips {
		cs := &skips[ci]
		s.bitmapRows += cs.bitmapRows
		base := uint32(len(s.skipNbr))
		s.skipRows = append(s.skipRows, cs.rows...)
		s.skipNbr = append(s.skipNbr, cs.nbr...)
		s.skipOff = append(s.skipOff, cs.off...)
		for _, end := range cs.idx[1:] {
			s.skipIdx = append(s.skipIdx, base+end)
		}
	}
	return s
}

// frozenBytes is the side's total footprint: streams plus tables.
func (s *side) frozenBytes() int {
	b := 0
	for _, c := range s.chunks {
		b += len(c)
	}
	b += 4 * (len(s.off) + len(s.skipRows) + len(s.skipIdx) + len(s.skipNbr) + len(s.skipOff))
	return b
}

// openRow positions a reader at row r's deg field by jumping to the row's
// offset group and skip-decoding at most offGroup−1 self-delimiting
// predecessor rows.
//
//kw:hotpath
func (s *side) openRow(r uint32) (golomb.BitReader, []byte) {
	data := s.chunks[int(r)/s.rowsPerChunk]
	group := int(r) / s.offGroup
	br := golomb.BitReaderAt(data, int(s.off[group]))
	s.skipRowsFrom(&br, data, group*s.offGroup, int(r))
	return br, data
}

// skipRowsFrom advances br over rows [from, to) of data, decoding only as
// much as self-delimitation requires.
//
//kw:hotpath
func (s *side) skipRowsFrom(br *golomb.BitReader, data []byte, from, to int) {
	for row := from; row < to; row++ {
		deg, err := s.degC.Read(br)
		if err != nil {
			panic("clickgraph: corrupt row header")
		}
		if deg == 0 {
			continue
		}
		flag, err := br.ReadBit()
		if err != nil {
			panic("clickgraph: corrupt row flag")
		}
		if flag == 1 {
			// Bitmap: jump the fixed word block, decode the weights.
			nWords := (int(s.universe) + 63) / 64
			*br = golomb.BitReaderAt(data, br.BitPos()+nWords*64)
			for k := uint32(0); k < deg; k++ {
				if _, err := s.wC.Read(br); err != nil {
					panic("clickgraph: corrupt weight stream")
				}
			}
			continue
		}
		gapC := golomb.NewCodec(rowM(s.universe, int(deg)))
		for j := uint32(0); j < deg; j++ {
			if j != 0 && int(j)%skipSpan == 0 {
				if _, err := br.ReadBits(s.absW); err != nil {
					panic("clickgraph: corrupt restart")
				}
			} else if _, err := gapC.Read(br); err != nil {
				panic("clickgraph: corrupt gap stream")
			}
			if _, err := s.wC.Read(br); err != nil {
				panic("clickgraph: corrupt weight stream")
			}
		}
	}
}

// rowIter streams one row's (neighbor, clicks) pairs in ascending neighbor
// order. The zero value is reusable across rows via iterInto; it holds no
// heap state of its own, so embedding it in pooled scratch is free.
type rowIter struct {
	br   golomb.BitReader // gap/weight stream (or bitmap weights)
	gapC golomb.Codec
	wC   golomb.Codec
	absW uint
	deg  int
	i    int
	prev uint32

	bitmap  bool
	bmr     golomb.BitReader // bitmap word stream
	word    uint64
	wordIdx int
	nWords  int
}

// iterInto positions it at the start of row r.
//
//kw:hotpath
func (s *side) iterInto(r uint32, it *rowIter) {
	br, data := s.openRow(r)
	s.startRow(br, data, it)
}

// rowCursor remembers where the previous row's stream ended so an
// ascending scan (the propagation sweep) decodes each row at most once
// instead of re-skipping its offset-group predecessors. The cached
// position is only correct when every opened row is consumed to
// exhaustion before the next cursorInto; the sweep always does.
type rowCursor struct {
	it    rowIter
	chunk int
	next  int64 // row the stream is positioned at; -1 means unknown
}

// cursorInto positions c.it at row r, resuming from the previous row's end
// whenever that skips no more rows than a fresh group jump would.
//
//kw:hotpath
func (s *side) cursorInto(r uint32, c *rowCursor) {
	chunk := int(r) / s.rowsPerChunk
	if c.next >= 0 && c.chunk == chunk && c.next <= int64(r) &&
		int64(r)-c.next <= int64(int(r)%s.offGroup) {
		data := s.chunks[chunk]
		br := golomb.BitReaderAt(data, c.it.br.BitPos())
		s.skipRowsFrom(&br, data, int(c.next), int(r))
		s.startRow(br, data, &c.it)
	} else {
		br, data := s.openRow(r)
		s.startRow(br, data, &c.it)
	}
	c.chunk = chunk
	c.next = int64(r) + 1
}

// startRow reads row r's header at br and initializes the iterator. br
// must sit exactly at the deg field; on return it.br ends the row when
// fully consumed (the cursor invariant).
//
//kw:hotpath
func (s *side) startRow(br golomb.BitReader, data []byte, it *rowIter) {
	deg, err := s.degC.Read(&br)
	if err != nil {
		panic("clickgraph: corrupt row header")
	}
	it.wC = s.wC
	it.deg = int(deg)
	it.i = 0
	it.prev = 0
	it.bitmap = false
	if deg == 0 {
		it.br = br
		return
	}
	flag, err := br.ReadBit()
	if err != nil {
		panic("clickgraph: corrupt row flag")
	}
	it.bitmap = flag == 1
	if it.bitmap {
		it.nWords = (int(s.universe) + 63) / 64
		it.wordIdx = 0
		it.word = 0
		it.bmr = br
		// Weights start right after the fixed-size word block.
		it.br = golomb.BitReaderAt(data, br.BitPos()+it.nWords*64)
	} else {
		it.absW = s.absW
		it.gapC = golomb.NewCodec(rowM(s.universe, int(deg)))
		it.br = br
	}
}

// next returns the row's next (neighbor, clicks) pair.
//
//kw:hotpath
func (it *rowIter) next() (nbr, clicks uint32, ok bool) {
	if it.i >= it.deg {
		return 0, 0, false
	}
	j := it.i
	it.i++
	if it.bitmap {
		for it.word == 0 {
			if it.wordIdx >= it.nWords {
				panic("clickgraph: bitmap row short of set bits")
			}
			w, err := it.bmr.ReadBits(64)
			if err != nil {
				panic("clickgraph: corrupt bitmap row")
			}
			it.word = w
			it.wordIdx++
		}
		tz := bits.TrailingZeros64(it.word)
		it.word &= it.word - 1
		nbr = uint32((it.wordIdx-1)*64 + tz)
	} else {
		switch {
		case j == 0:
			v, err := it.gapC.Read(&it.br)
			if err != nil {
				panic("clickgraph: corrupt gap stream")
			}
			nbr = v
		case j%skipSpan == 0:
			v, err := it.br.ReadBits(it.absW)
			if err != nil {
				panic("clickgraph: corrupt restart")
			}
			nbr = uint32(v)
		default:
			gap, err := it.gapC.Read(&it.br)
			if err != nil {
				panic("clickgraph: corrupt gap stream")
			}
			nbr = it.prev + gap + 1
		}
		it.prev = nbr
	}
	w, err := it.wC.Read(&it.br)
	if err != nil {
		panic("clickgraph: corrupt weight stream")
	}
	return nbr, w + 1, true
}

// isBitmap reports whether row r froze as a bitmap (test hook).
func (s *side) isBitmap(r uint32) bool {
	br, _ := s.openRow(r)
	deg, err := s.degC.Read(&br)
	if err != nil || deg == 0 {
		return false
	}
	flag, err := br.ReadBit()
	return err == nil && flag == 1
}

// seek returns the weight of edge (r, target) if present. Bitmap rows
// answer membership from the word block directly; gap rows binary-search
// the skip table and decode at most skipSpan−1 gaps past the restart.
func (s *side) seek(r, target uint32) (uint32, bool) {
	if int(r) >= s.n || target >= s.universe {
		return 0, false
	}
	br, data := s.openRow(r)
	deg32, err := s.degC.Read(&br)
	if err != nil {
		panic("clickgraph: corrupt row header")
	}
	deg := int(deg32)
	if deg == 0 {
		return 0, false
	}
	flag, err := br.ReadBit()
	if err != nil {
		panic("clickgraph: corrupt row flag")
	}
	if flag == 1 {
		nWords := (int(s.universe) + 63) / 64
		wordsStart := br.BitPos()
		// Membership test on the target word.
		wr := golomb.BitReaderAt(data, wordsStart+int(target>>6)*64)
		word, err := wr.ReadBits(64)
		if err != nil {
			panic("clickgraph: corrupt bitmap row")
		}
		if word&(1<<(target&63)) == 0 {
			return 0, false
		}
		// Rank: count set bits before target to skip that many weights.
		rank := bits.OnesCount64(word & (1<<(target&63) - 1))
		wr = golomb.BitReaderAt(data, wordsStart)
		for wi := 0; wi < int(target>>6); wi++ {
			w, err := wr.ReadBits(64)
			if err != nil {
				panic("clickgraph: corrupt bitmap row")
			}
			rank += bits.OnesCount64(w)
		}
		wbr := golomb.BitReaderAt(data, wordsStart+nWords*64)
		for k := 0; k < rank; k++ {
			if _, err := s.wC.Read(&wbr); err != nil {
				panic("clickgraph: corrupt weight stream")
			}
		}
		w, err := s.wC.Read(&wbr)
		if err != nil {
			panic("clickgraph: corrupt weight stream")
		}
		return w + 1, true
	}

	// Find the latest restart with neighbor ≤ target.
	startEdge := 0
	if deg > skipSpan {
		if si, ok := findRow(s.skipRows, r); ok {
			a, b := s.skipIdx[si], s.skipIdx[si+1]
			// First entry with nbr > target; start from its predecessor.
			lo, hi := int(a), int(b)
			for lo < hi {
				mid := (lo + hi) / 2
				if s.skipNbr[mid] <= target {
					lo = mid + 1
				} else {
					hi = mid
				}
			}
			if lo > int(a) {
				entry := lo - 1
				startEdge = (entry - int(a) + 1) * skipSpan
				br = golomb.BitReaderAt(data, int(s.skipOff[entry]))
			}
		}
	}
	gapC := golomb.NewCodec(rowM(s.universe, deg))
	prev := uint32(0)
	end := startEdge + skipSpan
	if end > deg {
		end = deg
	}
	for j := startEdge; j < end; j++ {
		var nbr uint32
		switch {
		case j == 0:
			v, err := gapC.Read(&br)
			if err != nil {
				panic("clickgraph: corrupt gap stream")
			}
			nbr = v
		case j%skipSpan == 0:
			v, err := br.ReadBits(s.absW)
			if err != nil {
				panic("clickgraph: corrupt restart")
			}
			nbr = uint32(v)
		default:
			gap, err := gapC.Read(&br)
			if err != nil {
				panic("clickgraph: corrupt gap stream")
			}
			nbr = prev + gap + 1
		}
		prev = nbr
		w, err := s.wC.Read(&br)
		if err != nil {
			panic("clickgraph: corrupt weight stream")
		}
		if nbr == target {
			return w + 1, true
		}
		if nbr > target {
			return 0, false
		}
	}
	return 0, false
}

// findRow binary-searches the ascending skipRows for r.
func findRow(rows []uint32, r uint32) (int, bool) {
	lo, hi := 0, len(rows)
	for lo < hi {
		mid := (lo + hi) / 2
		if rows[mid] < r {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(rows) && rows[lo] == r {
		return lo, true
	}
	return 0, false
}
