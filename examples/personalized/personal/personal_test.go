package personal

import (
	"math"
	"math/rand"
	"testing"

	"contextrank/internal/world"
)

func testWorldConcepts(t testing.TB) *world.World {
	t.Helper()
	return world.New(world.Config{Seed: 211, VocabSize: 1500, NumTopics: 8, NumConcepts: 200})
}

func TestGenerateUsersShape(t *testing.T) {
	users := GenerateUsers(20, 8, 1)
	if len(users) != 20 {
		t.Fatalf("users = %d", len(users))
	}
	var loved, ignored int
	for _, u := range users {
		if len(u.TopicAffinity) != 8 {
			t.Fatalf("affinity width = %d", len(u.TopicAffinity))
		}
		for _, a := range u.TopicAffinity {
			if a > 2 {
				loved++
			}
			if a < 0.5 {
				ignored++
			}
		}
	}
	if loved == 0 || ignored == 0 {
		t.Fatal("users lack strong preferences")
	}
	// Deterministic.
	again := GenerateUsers(20, 8, 1)
	for i := range users {
		for t2 := range users[i].TopicAffinity {
			if users[i].TopicAffinity[t2] != again[i].TopicAffinity[t2] {
				t.Fatal("not deterministic")
			}
		}
	}
}

// simulateHistory feeds a user's clicks on random concepts into a profile.
func simulateHistory(w *world.World, u *User, p *Profile, impressions int, rng *rand.Rand) {
	baseCTR := 0.04
	for i := 0; i < impressions; i++ {
		c := &w.Concepts[rng.Intn(len(w.Concepts))]
		ctr := baseCTR * u.CTRFactor(c)
		if ctr > 0.9 {
			ctr = 0.9
		}
		p.Observe(c, rng.Float64() < ctr)
	}
}

func TestProfileRecoversAffinities(t *testing.T) {
	w := testWorldConcepts(t)
	users := GenerateUsers(1, w.Config.NumTopics, 2)
	u := &users[0]
	p := NewProfile(w.Config.NumTopics)
	rng := rand.New(rand.NewSource(3))
	simulateHistory(w, u, p, 20000, rng)

	// The learned affinity must be substantially higher for the user's
	// loved topics than the ignored ones.
	lovedTopic, ignoredTopic := -1, -1
	for topic, a := range u.TopicAffinity {
		if a > 2 {
			lovedTopic = topic
		}
		if a < 0.5 {
			ignoredTopic = topic
		}
	}
	if lovedTopic < 0 || ignoredTopic < 0 {
		t.Skip("user lacks extremes")
	}
	var lovedAff, ignoredAff float64
	var lovedN, ignoredN int
	for i := range w.Concepts {
		c := &w.Concepts[i]
		switch c.Topic {
		case lovedTopic:
			lovedAff += p.Affinity(c)
			lovedN++
		case ignoredTopic:
			ignoredAff += p.Affinity(c)
			ignoredN++
		}
	}
	if lovedN == 0 || ignoredN == 0 {
		t.Skip("no concepts in extreme topics")
	}
	if lovedAff/float64(lovedN) <= 1.3*(ignoredAff/float64(ignoredN)) {
		t.Fatalf("profile failed to separate: loved=%.2f ignored=%.2f",
			lovedAff/float64(lovedN), ignoredAff/float64(ignoredN))
	}
}

func TestProfileColdStart(t *testing.T) {
	w := testWorldConcepts(t)
	p := NewProfile(w.Config.NumTopics)
	if got := p.Affinity(&w.Concepts[0]); got != 1 {
		t.Fatalf("empty profile affinity = %v", got)
	}
	if p.Views() != 0 {
		t.Fatal("empty profile has views")
	}
}

// The headline personalization property: re-ranking with the learned
// profile orders a user's held-out impressions better than the global
// score alone.
func TestPersonalizerImprovesRanking(t *testing.T) {
	w := testWorldConcepts(t)
	users := GenerateUsers(1, w.Config.NumTopics, 5)
	u := &users[0]
	p := NewProfile(w.Config.NumTopics)
	rng := rand.New(rand.NewSource(6))
	simulateHistory(w, u, p, 20000, rng)
	pz := &Personalizer{Profile: p, Weight: 1}

	// Held-out evaluation: groups of concepts; truth = user-specific CTR.
	// The "global score" knows the concept's global appeal (interest) but
	// not the user.
	correctGlobal, correctPersonal, total := 0, 0, 0
	for g := 0; g < 400; g++ {
		a := &w.Concepts[rng.Intn(len(w.Concepts))]
		b := &w.Concepts[rng.Intn(len(w.Concepts))]
		if a == b {
			continue
		}
		truthA := a.Interest * u.CTRFactor(a)
		truthB := b.Interest * u.CTRFactor(b)
		if truthA == truthB {
			continue
		}
		globalA, globalB := a.Interest, b.Interest
		// Log-scale the global term so it is commensurate with ln(affinity):
		// the true log-CTR is ln(interest) + ln(user factor).
		persA := pz.Rescore(math.Log(globalA+0.01), a)
		persB := pz.Rescore(math.Log(globalB+0.01), b)
		total++
		if (globalA > globalB) == (truthA > truthB) {
			correctGlobal++
		}
		if (persA > persB) == (truthA > truthB) {
			correctPersonal++
		}
	}
	if total == 0 {
		t.Fatal("no evaluation pairs")
	}
	gAcc := float64(correctGlobal) / float64(total)
	pAcc := float64(correctPersonal) / float64(total)
	t.Logf("global pair accuracy %.3f, personalized %.3f (n=%d)", gAcc, pAcc, total)
	if pAcc <= gAcc {
		t.Fatalf("personalization did not improve: %.3f vs %.3f", pAcc, gAcc)
	}
}

func TestCommunityNeighborsFindSimilarUsers(t *testing.T) {
	w := testWorldConcepts(t)
	users := GenerateUsers(6, w.Config.NumTopics, 7)
	// Make users 0 and 1 identical twins.
	users[1].TopicAffinity = append([]float64(nil), users[0].TopicAffinity...)
	users[1].TypeAffinity = users[0].TypeAffinity

	cm := &Community{}
	rng := rand.New(rand.NewSource(8))
	for i := range users {
		p := NewProfile(w.Config.NumTopics)
		simulateHistory(w, &users[i], p, 12000, rng)
		cm.Profiles = append(cm.Profiles, p)
	}
	neighbors := cm.Neighbors(0, 1)
	if len(neighbors) != 1 || neighbors[0] != 1 {
		t.Fatalf("twin not identified as nearest neighbor: %v", neighbors)
	}
}

func TestBlendedAffinityColdUser(t *testing.T) {
	w := testWorldConcepts(t)
	users := GenerateUsers(4, w.Config.NumTopics, 9)
	cm := &Community{}
	rng := rand.New(rand.NewSource(10))
	for i := range users {
		p := NewProfile(w.Config.NumTopics)
		n := 15000
		if i == 0 {
			n = 0 // cold user
		}
		simulateHistory(w, &users[i], p, n, rng)
		cm.Profiles = append(cm.Profiles, p)
	}
	c := &w.Concepts[10]
	blended := cm.BlendedAffinity(0, 2, c)
	// The cold user's own affinity is exactly 1; the blend must move toward
	// the neighbors unless they are also exactly 1.
	nbMean := (cm.Profiles[1].Affinity(c) + cm.Profiles[2].Affinity(c)) / 2
	_ = nbMean
	if cm.Profiles[0].Views() != 0 {
		t.Fatal("user 0 should be cold")
	}
	if blended == 1 && math.Abs(nbMean-1) > 0.05 {
		t.Fatalf("cold user ignored the community: blended=%v neighbors=%v", blended, nbMean)
	}
}

func TestCommunityNoNeighbors(t *testing.T) {
	cm := &Community{Profiles: []*Profile{NewProfile(4)}}
	c := &world.Concept{Topic: 1}
	if got := cm.BlendedAffinity(0, 3, c); got != 1 {
		t.Fatalf("lone cold profile affinity = %v", got)
	}
}
