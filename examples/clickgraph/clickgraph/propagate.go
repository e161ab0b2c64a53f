// Simrank++-style evidence-weighted affinity propagation (PAPERS.md:
// Antonellis et al., "Simrank++: query rewriting through link analysis of
// the click graph"). Each sweep pushes the active side's mass across its
// edges with transition weight decay·ev(clicks)/Σ ev — the evidence-
// weighted random walk of Simrank++ — alternating concept → story →
// concept.
//
// Determinism contract. A sweep runs one of two worker-independent modes,
// chosen only by frontier density (itself worker-independent):
//
//   - Dense pull (frontier ≥ half the active side): every destination node
//     sums its in-edges in ascending-source row order, reading a
//     pre-scaled source vector. Each node's sum is a fixed sequence, and
//     nodes partition into fixed ranges, so ANY worker count produces the
//     same bits with no merge step at all.
//   - Sparse push: the frontier splits into propShards fixed contiguous
//     segments; each shard accumulates into its own dense scratch
//     (touched-list zeroing, the relevance-miner idiom); the merge adds
//     shard contributions per node in ascending shard order and walks
//     nodes in ascending id order.
//
// In both modes worker count only changes which goroutine runs which fixed
// work unit, never a float summation order, so the output is bit-identical
// at Workers ∈ {1, 4, all}.
package clickgraph

import (
	"slices"

	"contextrank/internal/par"
)

const (
	// propShards is the fixed frontier shard count — NOT the worker
	// count. More shards than the usual core count keeps the work-stealing
	// loop of par.For busy; the count being fixed keeps summation order
	// worker-independent.
	propShards = 16
	// DefaultDecay is the Simrank++ decay factor C per hop.
	DefaultDecay = 0.8
)

// Propagator runs affinity sweeps over a frozen graph. Not safe for
// concurrent use; create one per goroutine (the graph itself is shared).
type Propagator struct {
	g     *Graph
	decay float64

	conc, story []float64
	onConcepts  bool // which side currently holds the mass

	frontier      []uint32
	frontierStale bool

	shards [propShards]shardAcc
	scaled []float64 // pre-scaled source vector of the dense pull mode

	sweeps int
}

type shardAcc struct {
	acc     []float64
	touched []uint32
}

// NewPropagator returns a propagator with DefaultDecay. The graph must be
// frozen.
func NewPropagator(g *Graph) *Propagator {
	g.mustFrozen()
	p := &Propagator{
		g:          g,
		decay:      DefaultDecay,
		conc:       make([]float64, g.NumConcepts()),
		story:      make([]float64, g.NumStories()),
		onConcepts: true,
	}
	return p
}

// SetDecay overrides the per-hop decay factor.
func (p *Propagator) SetDecay(c float64) { p.decay = c }

// Reset zeroes all mass and puts the propagator back on the concept side.
func (p *Propagator) Reset() {
	clear(p.conc)
	clear(p.story)
	p.onConcepts = true
	p.frontier = p.frontier[:0]
	p.frontierStale = false
	p.sweeps = 0
}

// SeedConcept adds mass to one concept node. Seeding is only valid while
// the mass sits on the concept side (before the first sweep or after an
// even number of sweeps).
func (p *Propagator) SeedConcept(c uint32, mass float64) {
	if !p.onConcepts {
		panic("clickgraph: SeedConcept while mass is on the story side")
	}
	p.conc[c] += mass
	p.frontierStale = true
}

// SeedUniform spreads unit mass uniformly over all concepts.
func (p *Propagator) SeedUniform() {
	if !p.onConcepts {
		panic("clickgraph: SeedUniform while mass is on the story side")
	}
	u := 1.0 / float64(len(p.conc))
	for i := range p.conc {
		p.conc[i] += u
	}
	p.frontierStale = true
}

// OnConcepts reports which side currently holds the mass.
func (p *Propagator) OnConcepts() bool { return p.onConcepts }

// Sweeps returns the number of sweeps run since the last Reset.
func (p *Propagator) Sweeps() int { return p.sweeps }

// ConceptScores returns the concept-side mass vector as a live view — do
// not modify; copy before mutating.
func (p *Propagator) ConceptScores() []float64 { return p.conc }

// StoryScores returns the story-side mass vector as a live view.
func (p *Propagator) StoryScores() []float64 { return p.story }

// Sweep pushes all mass one hop across the active side's edges. workers
// follows par.Workers semantics; any value produces bit-identical output.
func (p *Propagator) Sweep(workers int) {
	src, dst := p.conc, p.story
	s := &p.g.fwd
	norm := p.g.normF
	if !p.onConcepts {
		src, dst = p.story, p.conc
		s = &p.g.rev
		norm = p.g.normR
	}
	if p.frontierStale {
		p.rebuildFrontier(src)
	}

	// Dense frontier: pull over the destination side. rev holds the
	// in-edges of dst when pushing fwd and vice versa.
	if len(p.frontier) >= len(src)/2 {
		in := &p.g.rev
		if !p.onConcepts {
			in = &p.g.fwd
		}
		p.sweepPull(in, src, dst, norm, workers)
		p.onConcepts = !p.onConcepts
		p.sweeps++
		return
	}

	for si := range p.shards {
		sh := &p.shards[si]
		if len(sh.acc) < len(dst) {
			sh.acc = make([]float64, len(dst))
		}
	}

	n := len(p.frontier)
	par.For(workers, propShards, func(si int) {
		lo, hi := shardRange(n, si)
		sh := &p.shards[si]
		acc := sh.acc
		touched := sh.touched[:0]
		// Frontier nodes ascend within the shard, so the cursor resumes
		// from the previous row's end and each row decodes at most once.
		cur := rowCursor{next: -1}
		for _, node := range p.frontier[lo:hi] {
			score := src[node]
			if score == 0 || norm[node] == 0 {
				src[node] = 0
				continue
			}
			push := p.decay * score / norm[node]
			s.cursorInto(node, &cur)
			it := &cur.it
			for {
				nbr, w, ok := it.next()
				if !ok {
					break
				}
				if acc[nbr] == 0 {
					touched = append(touched, nbr)
				}
				acc[nbr] += push * evidence(w)
			}
			// Mass moves: each frontier node belongs to exactly one
			// shard, so this write is race-free.
			src[node] = 0
		}
		sh.touched = touched
	})

	total := 0
	for si := range p.shards {
		total += len(p.shards[si].touched)
	}
	if total >= len(dst)/2 {
		p.mergeDense(dst, workers)
	} else {
		p.mergeSparse(dst)
	}
	p.onConcepts = !p.onConcepts
	p.sweeps++
}

// sweepPull computes dst[t] = Σ_n scaled[n]·ev(w(n,t)) over in's row t,
// where scaled[n] = decay·src[n]/norm[n]. Row order fixes each node's
// summation sequence and nodes split into fixed ranges, so the result is
// worker-independent without any merge.
func (p *Propagator) sweepPull(in *side, src, dst, norm []float64, workers int) {
	if len(p.scaled) < len(src) {
		p.scaled = make([]float64, len(src))
	}
	scaled := p.scaled[:len(src)]
	for i, v := range src {
		if v != 0 && norm[i] != 0 {
			scaled[i] = p.decay * v / norm[i]
		} else {
			scaled[i] = 0
		}
	}
	par.For(workers, propShards, func(ri int) {
		lo, hi := shardRange(len(dst), ri)
		cur := rowCursor{next: -1}
		for t := lo; t < hi; t++ {
			in.cursorInto(uint32(t), &cur)
			it := &cur.it
			sum := 0.0
			for {
				nbr, w, ok := it.next()
				if !ok {
					break
				}
				sum += scaled[nbr] * evidence(w)
			}
			dst[t] = sum
		}
	})
	clear(src)
	p.frontier = p.frontier[:0]
	for t, v := range dst {
		if v != 0 {
			p.frontier = append(p.frontier, uint32(t))
		}
	}
}

// SweepN runs n sweeps.
func (p *Propagator) SweepN(n, workers int) {
	for i := 0; i < n; i++ {
		p.Sweep(workers)
	}
}

// rebuildFrontier scans the active side for nonzero mass.
func (p *Propagator) rebuildFrontier(src []float64) {
	p.frontier = p.frontier[:0]
	for i, v := range src {
		if v != 0 {
			p.frontier = append(p.frontier, uint32(i))
		}
	}
	p.frontierStale = false
}

// shardRange is the half-open slice of shard si over n items: fixed
// contiguous segments, independent of worker count.
func shardRange(n, si int) (int, int) {
	lo := n * si / propShards
	hi := n * (si + 1) / propShards
	return lo, hi
}

// mergeDense folds all shard accumulators into dst, parallel over fixed
// target ranges. For each node the shard contributions add in ascending
// shard order — the canonical summation order.
func (p *Propagator) mergeDense(dst []float64, workers int) {
	par.For(workers, propShards, func(ri int) {
		lo, hi := shardRange(len(dst), ri)
		for t := lo; t < hi; t++ {
			sum := 0.0
			for si := range p.shards {
				sum += p.shards[si].acc[t]
				p.shards[si].acc[t] = 0
			}
			dst[t] = sum
		}
	})
	for si := range p.shards {
		p.shards[si].touched = p.shards[si].touched[:0]
	}
	p.frontier = p.frontier[:0]
	for t, v := range dst {
		if v != 0 {
			p.frontier = append(p.frontier, uint32(t))
		}
	}
}

// mergeSparse folds only touched nodes, serially: shards in ascending
// order, so per-node adds follow the same canonical order as mergeDense.
// The union of touched lists, sorted and deduplicated, becomes the next
// frontier.
func (p *Propagator) mergeSparse(dst []float64) {
	next := p.frontier[:0]
	for si := range p.shards {
		sh := &p.shards[si]
		for _, t := range sh.touched {
			dst[t] += sh.acc[t]
			sh.acc[t] = 0
			next = append(next, t)
		}
		sh.touched = sh.touched[:0]
	}
	slices.Sort(next)
	p.frontier = slices.Compact(next)
}
