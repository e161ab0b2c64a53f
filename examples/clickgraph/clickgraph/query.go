// Query-time graph expansion: Related walks evidence-weighted affinity a
// few round trips out from one concept; Rewrite is the exact two-hop
// Simrank++ rewrite score with the common-neighbor evidence multiplier.
// Both run serially on pooled dense scratch (zeroed via touched lists) and
// return fresh result slices.
package clickgraph

import "sort"

// Scored is one ranked expansion result.
type Scored struct {
	// ID is the concept node id.
	ID uint32
	// Name is the concept name.
	Name string
	// Score is the affinity or rewrite score.
	Score float64
}

// queryScratch is the pooled per-query workspace: dense per-side score
// arrays plus touched lists, and a dense common-neighbor counter for
// Rewrite. Released state is always fully zeroed (O(touched)).
type queryScratch struct {
	conc, story   []float64
	concT, storyT []uint32
	common        []uint32
	it            rowIter
}

func (g *Graph) getScratch() *queryScratch {
	if sc, ok := g.queryScratch.Get().(*queryScratch); ok {
		if len(sc.conc) >= g.NumConcepts() && len(sc.story) >= g.NumStories() {
			return sc
		}
	}
	return &queryScratch{
		conc:   make([]float64, g.NumConcepts()),
		story:  make([]float64, g.NumStories()),
		common: make([]uint32, g.NumConcepts()),
	}
}

func (g *Graph) putScratch(sc *queryScratch) {
	for _, c := range sc.concT {
		sc.conc[c] = 0
		sc.common[c] = 0
	}
	for _, s := range sc.storyT {
		sc.story[s] = 0
	}
	sc.concT = sc.concT[:0]
	sc.storyT = sc.storyT[:0]
	g.queryScratch.Put(sc)
}

// RelatedRounds returns the top-k concepts by affinity to the named
// concept after `rounds` concept→story→concept round trips (Related uses
// two). The seed concept itself is excluded. Ties break on ascending node
// id. Returns nil for unknown concepts.
func (g *Graph) RelatedRounds(concept string, k, rounds int) []Scored {
	g.mustFrozen()
	q, ok := g.ConceptID(concept)
	if !ok || k <= 0 {
		return nil
	}
	sc := g.getScratch()
	sc.conc[q] = 1
	sc.concT = append(sc.concT, q)
	for r := 0; r < rounds; r++ {
		// Push the accumulated concept mass out and back. Nothing is
		// drained on the concept side, so the final scores are the
		// decayed sum over all walk lengths up to 2·rounds — deeper
		// rounds add transitive affinity at geometrically fading weight.
		sc.storyT = g.pushSide(&g.fwd, g.normF, sc.conc, sc.concT, sc.story, sc.storyT, &sc.it)
		sc.concT = g.pushSide(&g.rev, g.normR, sc.story, sc.storyT, sc.conc, sc.concT, &sc.it)
		for _, s := range sc.storyT {
			sc.story[s] = 0
		}
		sc.storyT = sc.storyT[:0]
	}
	res := g.topConcepts(sc, q, k)
	g.putScratch(sc)
	return res
}

// Related returns the top-k affinity neighbors of a concept — the
// "related shortcut" suggestions of the click-graph ROADMAP item.
func (g *Graph) Related(concept string, k int) []Scored {
	return g.RelatedRounds(concept, k, 2)
}

// pushSide pushes mass from src's touched nodes across side s into dst,
// appending newly-touched dst nodes to dstT. Source entries keep their
// mass (callers drain explicitly); the walk is serial, in touched order.
func (g *Graph) pushSide(s *side, norm []float64, src []float64, srcT []uint32, dst []float64, dstT []uint32, it *rowIter) []uint32 {
	for _, node := range srcT {
		score := src[node]
		if score == 0 || norm[node] == 0 {
			continue
		}
		push := DefaultDecay * score / norm[node]
		s.iterInto(node, it)
		for {
			nbr, w, ok := it.next()
			if !ok {
				break
			}
			if dst[nbr] == 0 {
				dstT = append(dstT, nbr)
			}
			dst[nbr] += push * evidence(w)
		}
	}
	return dstT
}

// Rewrite returns the top-k query rewrites for a concept: the exact
// two-hop Simrank++ score Σ_s W(q→s)·W(s→c), multiplied by the evidence
// weight ev(common) of the number of co-clicked stories, so rewrites
// supported by one shared story rank below rewrites supported by many.
func (g *Graph) Rewrite(concept string, k int) []Scored {
	g.mustFrozen()
	q, ok := g.ConceptID(concept)
	if !ok || k <= 0 {
		return nil
	}
	sc := g.getScratch()
	if g.normF[q] != 0 {
		var sit rowIter
		g.fwd.iterInto(q, &sit)
		for {
			s, w, ok := sit.next()
			if !ok {
				break
			}
			wq := DefaultDecay * evidence(w) / g.normF[q]
			if g.normR[s] == 0 {
				continue
			}
			g.rev.iterInto(s, &sc.it)
			for {
				c, cw, ok := sc.it.next()
				if !ok {
					break
				}
				if sc.conc[c] == 0 && sc.common[c] == 0 {
					sc.concT = append(sc.concT, c)
				}
				sc.conc[c] += wq * DefaultDecay * evidence(cw) / g.normR[s]
				sc.common[c]++
			}
		}
		for _, c := range sc.concT {
			sc.conc[c] *= evidence(sc.common[c])
		}
	}
	res := g.topConcepts(sc, q, k)
	g.putScratch(sc)
	return res
}

// topConcepts ranks the touched concepts (excluding the seed) by score
// descending, node id ascending, and returns a fresh top-k slice that
// shares nothing with the pooled scratch.
//
//kw:fresh
func (g *Graph) topConcepts(sc *queryScratch, seed uint32, k int) []Scored {
	res := make([]Scored, 0, len(sc.concT))
	for _, c := range sc.concT {
		if c == seed || sc.conc[c] == 0 {
			continue
		}
		res = append(res, Scored{ID: c, Score: sc.conc[c]})
	}
	sort.Slice(res, func(i, j int) bool {
		if res[i].Score > res[j].Score {
			return true
		}
		if res[i].Score < res[j].Score {
			return false
		}
		return res[i].ID < res[j].ID
	})
	if len(res) > k {
		res = res[:k:k]
	}
	for i := range res {
		res[i].Name = g.ConceptName(res[i].ID)
	}
	return res
}
