// Personalized: the paper's §IV-C personalization direction. A logged-in
// reader's click history reveals their topic and entity-type preferences;
// the ranker's global scores are re-ranked per user, and cold users borrow
// from similar readers via collaborative filtering.
package main

import (
	"flag"
	"fmt"
	"math"
	"math/rand"

	"contextrank"
	"contextrank/examples/personalized/personal"
	"contextrank/internal/world"
)

func main() {
	seed := flag.Int64("seed", 42, "base seed; user generation and click rngs use fixed offsets of it")
	flag.Parse()

	sys := contextrank.Build(contextrank.SmallConfig(*seed))
	w := sys.Internal().World

	// A small population of readers with latent preferences, plus their
	// observed click histories.
	users := personal.GenerateUsers(8, w.Config.NumTopics, *seed+7)
	// User 7 happens to share user 0's tastes — the situation collaborative
	// filtering exploits: somebody like you has a long history even if you
	// do not.
	users[7].TopicAffinity = append([]float64(nil), users[0].TopicAffinity...)
	users[7].TypeAffinity = users[0].TypeAffinity

	community := &personal.Community{}
	rng := rand.New(rand.NewSource(*seed + 9))
	base := 0.04
	for i := range users {
		p := personal.NewProfile(w.Config.NumTopics)
		n := 15000
		if i == 0 {
			n = 2000 // user 0 is new: some history, thin per topic
		}
		for k := 0; k < n; k++ {
			c := &w.Concepts[rng.Intn(len(w.Concepts))]
			ctr := base * users[i].CTRFactor(c)
			p.Observe(c, rng.Float64() < math.Min(ctr, 0.9))
		}
		community.Profiles = append(community.Profiles, p)
	}

	// Evaluate pairwise accuracy of three rankers for user 1 (an
	// established reader): global interest only, personalized, and the
	// CF-blended variant for the cold user 0.
	evalUser := func(userIdx int, affinity func(*world.Concept) float64) float64 {
		correct, total := 0, 0
		r := rand.New(rand.NewSource(*seed + 11))
		for t := 0; t < 600; t++ {
			a := &w.Concepts[r.Intn(len(w.Concepts))]
			b := &w.Concepts[r.Intn(len(w.Concepts))]
			truthA := a.Interest * users[userIdx].CTRFactor(a)
			truthB := b.Interest * users[userIdx].CTRFactor(b)
			if a == b || truthA == truthB {
				continue
			}
			scoreA := math.Log(a.Interest+0.01) + math.Log(affinity(a))
			scoreB := math.Log(b.Interest+0.01) + math.Log(affinity(b))
			total++
			if (scoreA > scoreB) == (truthA > truthB) {
				correct++
			}
		}
		return float64(correct) / float64(total)
	}

	flat := func(*world.Concept) float64 { return 1 }
	fmt.Println("pairwise ranking accuracy against each user's true click preferences:")
	fmt.Printf("  established reader, global ranking only:   %.3f\n", evalUser(1, flat))
	fmt.Printf("  established reader, + own profile:          %.3f\n",
		evalUser(1, community.Profiles[1].Affinity))
	fmt.Printf("  new reader, global ranking only:            %.3f\n", evalUser(0, flat))
	fmt.Printf("  new reader, + own thin profile:             %.3f\n",
		evalUser(0, community.Profiles[0].Affinity))
	fmt.Printf("  new reader, + collaborative filtering:      %.3f\n",
		evalUser(0, func(c *world.Concept) float64 { return community.BlendedAffinity(0, 1, c) }))

	neighbors := community.Neighbors(1, 2)
	fmt.Printf("\nreader 1's nearest taste neighbors: users %v\n", neighbors)
}
