// ORCAS-scale click-log synthesis. clicksim.Simulate composes full story
// text and samples clicks with an exact Bernoulli loop — perfect at
// paper scale (thousands of stories), far too slow at ORCAS scale
// (millions of clicked pairs). Synthesize keeps the clicksim click model
// (the same Config.TrueCTR latent CTR, power-law views, log-normal CTR
// noise) but skips text composition and samples Binomial(views, ctr)
// through Poisson/normal approximations, generating millions of edges in
// tens of milliseconds.
//
// Stories are generated in synthShards fixed shards, each with its own
// par.Seed-derived rng, and shard outputs are concatenated in shard order
// — the same edge list at any worker count.
package clickgraph

import (
	"math"
	"math/rand"
	"strconv"

	"contextrank/internal/clicksim"
	"contextrank/internal/par"
	"contextrank/internal/world"
)

// synthShards is the fixed story shard count of Synthesize, independent of
// the worker count.
const synthShards = 64

// SynthConfig parameterizes Synthesize.
type SynthConfig struct {
	// Seed drives every random draw (shard rngs derive via par.Seed).
	Seed int64
	// Stories and Concepts size the two node sides. Defaults 250_000 and
	// 4_000.
	Stories, Concepts int
	// MeanEntities is the mean number of annotated entities per story.
	// Default 8.
	MeanEntities float64
	// ZipfS skews concept popularity: concept i is drawn with weight
	// (i+1)^−ZipfS, so head concepts accumulate the high-degree rows that
	// exercise the bitmap representation. Default 0.7.
	ZipfS float64
	// Click is the clicksim click model; zero weights take the clicksim
	// defaults.
	Click clicksim.Config
}

func (c SynthConfig) withDefaults() SynthConfig {
	if c.Stories == 0 {
		c.Stories = 250_000
	}
	if c.Concepts == 0 {
		c.Concepts = 4_000
	}
	if c.MeanEntities == 0 {
		c.MeanEntities = 8
	}
	if c.ZipfS == 0 {
		c.ZipfS = 0.7
	}
	return c
}

type synthEdge struct {
	c, s, w uint32
}

// Synthesize builds (without freezing) a graph whose edges follow the
// clicksim click model at the configured scale. Story node ids are the
// story indices 0..Stories−1; concept names are "c0".."cN" interned in
// order, so node id equals concept index.
func Synthesize(cfg SynthConfig, workers int) *Graph {
	cfg = cfg.withDefaults()
	g := New()

	// Concept traits and popularity, from the root rng.
	rng := rand.New(rand.NewSource(cfg.Seed))
	concepts := make([]world.Concept, cfg.Concepts)
	weights := make([]float64, cfg.Concepts)
	for i := range concepts {
		concepts[i] = world.Concept{
			ID:       i,
			Name:     "c" + strconv.Itoa(i),
			Interest: rng.Float64(),
			Quality:  0.3 + 0.7*rng.Float64(),
		}
		g.InternConcept(concepts[i].Name)
		weights[i] = math.Pow(float64(i+1), -cfg.ZipfS)
	}
	zipf := newAlias(weights)
	for i := 0; i < cfg.Stories; i++ {
		g.InternStory(i)
	}

	perShard := (cfg.Stories + synthShards - 1) / synthShards
	shardEdges := par.Map(workers, synthShards, func(si int) []synthEdge {
		lo := si * perShard
		hi := lo + perShard
		if hi > cfg.Stories {
			hi = cfg.Stories
		}
		if lo >= hi {
			return nil
		}
		srng := rand.New(rand.NewSource(par.Seed(cfg.Seed, si+1)))
		edges := make([]synthEdge, 0, int(float64(hi-lo)*cfg.MeanEntities/2))
		for s := lo; s < hi; s++ {
			views := 8 + int(float64(clicksim.MaxViews)*math.Pow(srng.Float64(), 2.5))
			nEnt := 1 + int(srng.ExpFloat64()*(cfg.MeanEntities-1))
			if nEnt > 4*int(cfg.MeanEntities) {
				nEnt = 4 * int(cfg.MeanEntities)
			}
			for e := 0; e < nEnt; e++ {
				ci := zipf.draw(srng)
				degree := srng.Float64()
				position := e*300 + srng.Intn(200)
				ctr := cfg.Click.TrueCTR(&concepts[ci], degree, position)
				ctr *= math.Exp(clicksim.CTRNoiseSigma * srng.NormFloat64())
				if ctr > 0.95 {
					ctr = 0.95
				}
				clicks := approxBinomial(srng, views, ctr)
				if clicks > 0 {
					edges = append(edges, synthEdge{c: uint32(ci), s: uint32(s), w: uint32(clicks)})
				}
			}
		}
		return edges
	})
	for _, edges := range shardEdges {
		for _, e := range edges {
			g.AddClicksID(e.c, e.s, e.w)
		}
	}
	return g
}

// alias is a Walker/Vose alias table: O(1) weighted sampling from one
// uniform draw, replacing the O(log n) CDF binary search on the synthesis
// hot path.
type alias struct {
	prob []float64
	alt  []int32
}

func newAlias(weights []float64) alias {
	n := len(weights)
	a := alias{prob: make([]float64, n), alt: make([]int32, n)}
	total := 0.0
	for _, w := range weights {
		total += w
	}
	scaled := make([]float64, n)
	small := make([]int32, 0, n)
	large := make([]int32, 0, n)
	for i, w := range weights {
		scaled[i] = w * float64(n) / total
		if scaled[i] < 1 {
			small = append(small, int32(i))
		} else {
			large = append(large, int32(i))
		}
	}
	for len(small) > 0 && len(large) > 0 {
		s := small[len(small)-1]
		small = small[:len(small)-1]
		l := large[len(large)-1]
		large = large[:len(large)-1]
		a.prob[s] = scaled[s]
		a.alt[s] = l
		scaled[l] -= 1 - scaled[s]
		if scaled[l] < 1 {
			small = append(small, l)
		} else {
			large = append(large, l)
		}
	}
	for _, i := range large {
		a.prob[i] = 1
	}
	for _, i := range small {
		a.prob[i] = 1 // numerical leftovers
	}
	return a
}

// draw samples an index using a single uniform variate: the integer part
// picks the column, the fractional part settles the coin flip.
func (a alias) draw(rng *rand.Rand) int {
	u := rng.Float64() * float64(len(a.prob))
	i := int(u)
	if u-float64(i) < a.prob[i] {
		return i
	}
	return int(a.alt[i])
}

// approxBinomial samples approximately Binomial(n, p) in O(n·p) instead of
// O(n): Poisson via Knuth multiplication for small means, the normal
// approximation above. Clamped to [0, n].
func approxBinomial(rng *rand.Rand, n int, p float64) int {
	if p <= 0 || n == 0 {
		return 0
	}
	if p >= 1 {
		return n
	}
	np := float64(n) * p
	var k int
	if np < 12 {
		// Poisson(np) ≈ Binomial(n, p) for small p, sampled by inverse
		// transform: one uniform draw walks the CDF in O(np) multiplies.
		u := rng.Float64()
		pk := math.Exp(-np)
		cdf := pk
		for u > cdf && k < 8*n {
			k++
			pk *= np / float64(k)
			cdf += pk
		}
	} else {
		k = int(math.Round(np + math.Sqrt(np*(1-p))*rng.NormFloat64()))
	}
	if k < 0 {
		k = 0
	}
	if k > n {
		k = n
	}
	return k
}
