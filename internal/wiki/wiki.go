// Package wiki models the encyclopedia substrate behind the paper's
// interestingness feature (9) wiki_word_count: "number of words in the
// Wikipedia article returned for the concept, and 0 is used if no article
// exists". The paper cites Hu et al. (CIKM 2007) for article length being a
// useful quality proxy.
//
// The synthetic encyclopedia assigns articles preferentially to popular,
// non-low-quality concepts, with word counts that grow with popularity —
// the correlation the learned model exploits.
package wiki

import (
	"math"
	"math/rand"

	"contextrank/internal/world"
)

// Encyclopedia maps concept names to article word counts.
type Encyclopedia struct {
	wordCount map[string]int
}

// Config parameterizes encyclopedia generation.
type Config struct {
	Seed int64
}

// maxWords is the length of the longest article.
const maxWords = 9000

// Build generates the synthetic encyclopedia for the world. A concept gets
// an article with probability rising in Interest (low-quality phrases almost
// never have one); article length is maxWords·Interest with log-normal
// noise.
func Build(w *world.World, cfg Config) *Encyclopedia {
	rng := rand.New(rand.NewSource(cfg.Seed))
	enc := &Encyclopedia{wordCount: make(map[string]int, len(w.Concepts))}
	for i := range w.Concepts {
		c := &w.Concepts[i]
		pArticle := 0.15 + float64(0.8*c.Interest)
		if c.LowQuality() {
			pArticle = 0.02
		}
		if rng.Float64() >= pArticle {
			continue
		}
		noise := math.Exp(0.4 * rng.NormFloat64())
		words := int(float64(maxWords) * (0.1 + float64(0.9*c.Interest)) * noise)
		if words < 30 {
			words = 30
		}
		enc.wordCount[c.Name] = words
	}
	return enc
}

// WordCount returns the article length for the concept, or 0 if no article
// exists — exactly the paper's feature semantics.
func (e *Encyclopedia) WordCount(concept string) int { return e.wordCount[concept] }
