// Package clickgraph materializes the bipartite concept ↔ story click
// graph from clicksim reports and freezes it into a compressed CSR
// representation sized for ORCAS-scale click logs (PAPERS.md: 18M clicked
// query–document pairs). Each side of the bipartite graph is a frozen
// adjacency: interned uint32 node ids (concept names through match.Vocab,
// story ids through a dense remap), neighbor-gap streams Golomb-coded via
// internal/golomb with fixed-width restarts every skipSpan edges, whole-row
// bitmap blocks when strictly smaller (the searchsim postings heuristic),
// and per-node bit-offset tables so propagation never decodes more than
// the row it touches.
//
// On top of the frozen graph sit Simrank++-style evidence-weighted
// affinity propagation (propagate.go — deterministic at any worker count),
// Related/Rewrite query expansion (query.go), and Query-Chains-style
// pairwise preference extraction feeding ranksvm and the online tracker
// (prefs.go).
package clickgraph

import (
	"math"
	"sync"

	"contextrank/internal/clicksim"
	"contextrank/internal/match"
	"contextrank/internal/par"
)

const (
	// skipSpan is the restart interval of the Golomb gap streams: every
	// skipSpan-th neighbor is stored as a fixed-width absolute id, and
	// rows longer than skipSpan carry a skip table entry per restart, so
	// a seek decodes at most skipSpan−1 gaps.
	skipSpan = 128
	// chunkCount is the fixed number of encode chunks per side. Rows are
	// assigned to chunks by contiguous ranges and chunks are encoded in
	// parallel; the count is worker-independent so the frozen bytes are
	// bit-identical at any worker count.
	chunkCount = 64
	// rawEdgeBytes is the cost of one edge in the uncompressed edge list
	// the frozen layout is measured against: (src, dst, clicks) uint32.
	rawEdgeBytes = 12
)

// Stats summarizes a frozen graph.
type Stats struct {
	// Concepts and Stories count the nodes on each side.
	Concepts, Stories int
	// Edges counts distinct (concept, story) pairs with at least one click.
	Edges int
	// TotalClicks sums click weights over all edges.
	TotalClicks uint64
	// RawBytes is the uncompressed edge-list size: rawEdgeBytes per edge.
	RawBytes int
	// FrozenBytes is the total size of both frozen adjacency sides:
	// compressed streams plus offset and skip tables.
	FrozenBytes int
	// BitmapRows counts rows stored as bitmaps instead of gap streams.
	BitmapRows int
	// SkipEntries counts skip-table restart entries across both sides.
	SkipEntries int
}

// Graph is the bipartite click graph. The build phase (AddReport,
// AddClicks, the interning helpers) accumulates a raw edge list; Freeze
// deduplicates it, compresses both adjacency sides, and precomputes the
// evidence norms. After Freeze the graph is immutable and safe for
// concurrent readers.
//
//kw:frozen-after(Freeze)
type Graph struct {
	vocab    *match.Vocab
	storyIdx map[int]uint32 // external story id -> dense node id
	storyOf  []int          // dense node id -> external story id

	// Raw edge staging, released by Freeze.
	srcs, dsts, wts []uint32

	frozen bool
	fwd    side // concept -> stories
	rev    side // story -> concepts
	stats  Stats

	// normF[c] / normR[s] are the evidence normalizers Σ ev(clicks) over
	// the node's row — the denominators of the Simrank++ transition
	// weights. Computed once during Freeze.
	normF, normR []float64

	queryScratch sync.Pool
}

// New returns an empty graph.
func New() *Graph {
	return &Graph{
		vocab:    match.NewVocab(),
		storyIdx: make(map[int]uint32),
	}
}

// InternConcept returns the dense node id for a concept name, assigning
// the next id if new.
//
//kw:builder
func (g *Graph) InternConcept(name string) uint32 {
	return g.vocab.Intern(name)
}

// InternStory returns the dense node id for an external story id,
// assigning the next id if new.
//
//kw:builder
func (g *Graph) InternStory(storyID int) uint32 {
	if id, ok := g.storyIdx[storyID]; ok {
		return id
	}
	id := uint32(len(g.storyOf))
	g.storyIdx[storyID] = id
	g.storyOf = append(g.storyOf, storyID)
	return id
}

// AddClicksID records clicks on (concept node, story node). Edges with
// zero clicks are dropped; duplicate pairs are merged by Freeze (click
// counts sum).
//
//kw:builder
func (g *Graph) AddClicksID(concept, story, clicks uint32) {
	if clicks == 0 {
		return
	}
	g.srcs = append(g.srcs, concept)
	g.dsts = append(g.dsts, story)
	g.wts = append(g.wts, clicks)
}

// AddClicks records clicks on (concept name, external story id), interning
// both. Zero-click calls still register the nodes, so a story or concept
// can exist with an empty adjacency row.
//
//kw:builder
func (g *Graph) AddClicks(concept string, storyID, clicks int) {
	c := g.InternConcept(concept)
	s := g.InternStory(storyID)
	if clicks > 0 {
		g.AddClicksID(c, s, uint32(clicks))
	}
}

// AddReport folds one clicksim report into the graph: every entity with at
// least one click becomes an edge weighted by its click count.
//
//kw:builder
func (g *Graph) AddReport(r *clicksim.Report) {
	s := g.InternStory(r.Story.ID)
	for i := range r.Entities {
		e := &r.Entities[i]
		if e.Clicks <= 0 {
			continue
		}
		g.AddClicksID(g.vocab.Intern(e.Concept.Name), s, uint32(e.Clicks))
	}
}

// FromReports builds and freezes a graph from cleaned clicksim reports.
func FromReports(reports []clicksim.Report, workers int) *Graph {
	g := New()
	for i := range reports {
		g.AddReport(&reports[i])
	}
	g.FreezeWorkers(workers)
	return g
}

// Freeze compresses the graph serially. See FreezeWorkers.
func (g *Graph) Freeze() { g.FreezeWorkers(1) }

// FreezeWorkers deduplicates the staged edge list, builds both CSR sides,
// Golomb-compresses them chunk-parallel, and precomputes the evidence
// norms. workers follows par.Workers semantics (0 = all cores); the frozen
// bytes are bit-identical at any worker count. Freezing an already-frozen
// or empty graph is allowed; adding edges after Freeze panics.
//
//kw:builder
func (g *Graph) FreezeWorkers(workers int) {
	if g.frozen {
		panic("clickgraph: FreezeWorkers called twice")
	}
	nC := g.vocab.Len()
	nS := len(g.storyOf)

	// Deduplicate into a forward CSR (concept -> sorted story rows).
	start, dst, wt := dedupCSR(nC, g.srcs, g.dsts, g.wts, workers)
	g.srcs, g.dsts, g.wts = nil, nil, nil

	edges := len(dst)
	var total uint64
	for _, w := range wt {
		total += uint64(w)
	}

	// Reverse CSR: scatter forward rows in ascending concept order, so
	// every story row comes out sorted by concept id with no duplicates
	// (the forward side is already deduplicated).
	rStart, rDst, rWt := transposeCSR(nC, nS, start, dst, wt)

	g.fwd = encodeSide(uint32(nS), start, dst, wt, total, workers)
	g.rev = encodeSide(uint32(nC), rStart, rDst, rWt, total, workers)

	g.normF = evidenceNorms(start, wt, workers)
	g.normR = evidenceNorms(rStart, rWt, workers)

	g.stats = Stats{
		Concepts:    nC,
		Stories:     nS,
		Edges:       edges,
		TotalClicks: total,
		RawBytes:    rawEdgeBytes * edges,
		FrozenBytes: g.fwd.frozenBytes() + g.rev.frozenBytes(),
		BitmapRows:  g.fwd.bitmapRows + g.rev.bitmapRows,
		SkipEntries: len(g.fwd.skipNbr) + len(g.rev.skipNbr),
	}
	g.frozen = true
}

// dedupCSR counting-sorts the edge list by src, sorts each row by dst and
// merges duplicate (src, dst) pairs by summing weights. The scatter order
// is the deterministic input order and duplicate weights sum in integers,
// so the result is independent of worker count.
func dedupCSR(n int, srcs, dsts, wts []uint32, workers int) (start, dst, wt []uint32) {
	deg := make([]uint32, n+1)
	for _, s := range srcs {
		deg[s+1]++
	}
	for i := 0; i < n; i++ {
		deg[i+1] += deg[i]
	}
	scatterD := make([]uint32, len(dsts))
	scatterW := make([]uint32, len(dsts))
	next := make([]uint32, n)
	copy(next, deg[:n])
	for i, s := range srcs {
		p := next[s]
		next[s] = p + 1
		scatterD[p] = dsts[i]
		scatterW[p] = wts[i]
	}
	// Sort and merge each row in place; newDeg[r] is the deduped length.
	newDeg := make([]uint32, n+1)
	par.For(workers, n, func(r int) {
		lo, hi := deg[r], deg[r+1]
		row, rw := scatterD[lo:hi], scatterW[lo:hi]
		sortPairs(row, rw)
		w := 0
		for i := 0; i < len(row); i++ {
			if w > 0 && row[w-1] == row[i] {
				rw[w-1] += rw[i]
				continue
			}
			row[w], rw[w] = row[i], rw[i]
			w++
		}
		newDeg[r+1] = uint32(w)
	})
	for i := 0; i < n; i++ {
		newDeg[i+1] += newDeg[i]
	}
	dst = make([]uint32, newDeg[n])
	wt = make([]uint32, newDeg[n])
	par.For(workers, n, func(r int) {
		lo := newDeg[r]
		span := newDeg[r+1] - lo
		copy(dst[lo:lo+span], scatterD[deg[r]:deg[r]+span])
		copy(wt[lo:lo+span], scatterW[deg[r]:deg[r]+span])
	})
	return newDeg, dst, wt
}

// sortPairs sorts parallel arrays by key ascending (insertion sort below a
// threshold, median-of-three quicksort above). Equal-key order is
// irrelevant: duplicates merge by integer summation.
func sortPairs(keys, vals []uint32) {
	for len(keys) > 24 {
		p := medianOfThree(keys)
		lo, hi := 0, len(keys)-1
		for lo <= hi {
			for keys[lo] < p {
				lo++
			}
			for keys[hi] > p {
				hi--
			}
			if lo <= hi {
				keys[lo], keys[hi] = keys[hi], keys[lo]
				vals[lo], vals[hi] = vals[hi], vals[lo]
				lo++
				hi--
			}
		}
		// Recurse into the smaller half, loop on the larger.
		if hi+1 < len(keys)-lo {
			sortPairs(keys[:hi+1], vals[:hi+1])
			keys, vals = keys[lo:], vals[lo:]
		} else {
			sortPairs(keys[lo:], vals[lo:])
			keys, vals = keys[:hi+1], vals[:hi+1]
		}
	}
	for i := 1; i < len(keys); i++ {
		k, v := keys[i], vals[i]
		j := i - 1
		for j >= 0 && keys[j] > k {
			keys[j+1], vals[j+1] = keys[j], vals[j]
			j--
		}
		keys[j+1], vals[j+1] = k, v
	}
}

func medianOfThree(keys []uint32) uint32 {
	a, b, c := keys[0], keys[len(keys)/2], keys[len(keys)-1]
	if a > b {
		a, b = b, a
	}
	if b > c {
		b = c
	}
	if a > b {
		b = a
	}
	return b
}

// transposeCSR builds the reverse CSR from a deduplicated forward CSR.
// Scattering rows in ascending src order leaves every reverse row sorted.
func transposeCSR(nSrc, nDst int, start, dst, wt []uint32) (rStart, rDst, rWt []uint32) {
	rStart = make([]uint32, nDst+1)
	for _, d := range dst {
		rStart[d+1]++
	}
	for i := 0; i < nDst; i++ {
		rStart[i+1] += rStart[i]
	}
	rDst = make([]uint32, len(dst))
	rWt = make([]uint32, len(dst))
	next := make([]uint32, nDst)
	copy(next, rStart[:nDst])
	for s := 0; s < nSrc; s++ {
		for i := start[s]; i < start[s+1]; i++ {
			d := dst[i]
			p := next[d]
			next[d] = p + 1
			rDst[p] = uint32(s)
			rWt[p] = wt[i]
		}
	}
	return rStart, rDst, rWt
}

// evidence is the Simrank++ evidence weight of an edge with n clicks:
// ev(n) = 1 − 2^(−n), so repeated clicks asymptotically approach full
// confidence while a single click counts half.
func evidence(clicks uint32) float64 {
	if clicks >= 63 {
		return 1
	}
	return evTable[clicks]
}

var evTable = func() [63]float64 {
	var t [63]float64
	for i := 1; i < len(t); i++ {
		t[i] = 1 - math.Pow(2, -float64(i))
	}
	return t
}()

// evidenceNorms computes Σ ev(w) per row. Each row sums serially in edge
// order, so the result is worker-independent.
func evidenceNorms(start, wt []uint32, workers int) []float64 {
	n := len(start) - 1
	norms := make([]float64, n)
	par.For(workers, n, func(r int) {
		var sum float64
		for i := start[r]; i < start[r+1]; i++ {
			sum += evidence(wt[i])
		}
		norms[r] = sum
	})
	return norms
}

// Frozen reports whether Freeze has run.
func (g *Graph) Frozen() bool { return g.frozen }

// Stats returns the frozen graph's summary. Zero before Freeze.
func (g *Graph) Stats() Stats { return g.stats }

// NumConcepts returns the concept-side node count.
func (g *Graph) NumConcepts() int { return g.vocab.Len() }

// NumStories returns the story-side node count.
func (g *Graph) NumStories() int { return len(g.storyOf) }

// ConceptID returns the node id of a concept name.
func (g *Graph) ConceptID(name string) (uint32, bool) {
	id := g.vocab.ID(name)
	return id, id != match.NoID
}

// ConceptName returns the name of a concept node.
func (g *Graph) ConceptName(id uint32) string { return g.vocab.Token(id) }

// StoryNode returns the node id of an external story id.
func (g *Graph) StoryNode(storyID int) (uint32, bool) {
	id, ok := g.storyIdx[storyID]
	return id, ok
}

// StoryID returns the external story id of a story node.
func (g *Graph) StoryID(node uint32) int { return g.storyOf[node] }

func (g *Graph) mustFrozen() {
	if !g.frozen {
		panic("clickgraph: graph not frozen")
	}
}

// ConceptDegree returns the number of stories adjacent to a concept node.
func (g *Graph) ConceptDegree(c uint32) int {
	g.mustFrozen()
	var it rowIter
	g.fwd.iterInto(c, &it)
	return it.deg
}

// StoryDegree returns the number of concepts adjacent to a story node.
func (g *Graph) StoryDegree(s uint32) int {
	g.mustFrozen()
	var it rowIter
	g.rev.iterInto(s, &it)
	return it.deg
}

// VisitConcept calls fn for every (story node, clicks) edge of a concept
// node, in ascending story order.
func (g *Graph) VisitConcept(c uint32, fn func(story, clicks uint32)) {
	g.mustFrozen()
	var it rowIter
	g.fwd.iterInto(c, &it)
	for {
		nbr, w, ok := it.next()
		if !ok {
			return
		}
		fn(nbr, w)
	}
}

// VisitStory calls fn for every (concept node, clicks) edge of a story
// node, in ascending concept order.
func (g *Graph) VisitStory(s uint32, fn func(concept, clicks uint32)) {
	g.mustFrozen()
	var it rowIter
	g.rev.iterInto(s, &it)
	for {
		nbr, w, ok := it.next()
		if !ok {
			return
		}
		fn(nbr, w)
	}
}

// Clicks returns the click weight of edge (concept node, story node), or
// (0, false) when absent. Seeks through the skip table, decoding at most
// skipSpan−1 gaps.
func (g *Graph) Clicks(c, s uint32) (uint32, bool) {
	g.mustFrozen()
	return g.fwd.seek(c, s)
}
