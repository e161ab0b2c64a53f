// Package personal implements the paper's §IV-C personalization direction:
// "In cases where the application supports a user login, we believe that
// personalization and collaborative filtering techniques can greatly
// improve this prediction for individuals by analyzing the history of
// actions taken."
//
// A simulated user has latent per-topic and per-type click affinities that
// multiply the global CTR. A Profile estimates those affinities from the
// user's click history with additive smoothing, and a Personalizer blends
// the profile's affinity into the global model score. For cold users, a
// Community borrows affinity from the most similar profiles (user-user
// collaborative filtering with cosine similarity over topic CTR vectors).
package personal

import (
	"math"
	"math/rand"
	"sort"

	"contextrank/internal/world"
)

// NumTypes mirrors the taxonomy width for per-type affinities.
const NumTypes = 7

// User is a simulated reader with latent preferences.
type User struct {
	// ID identifies the user.
	ID int
	// TopicAffinity multiplies the global CTR for concepts of each topic
	// (1 = indifferent). A few topics are loved (~3x) or ignored (~0.3x).
	TopicAffinity []float64
	// TypeAffinity multiplies the CTR per entity type.
	TypeAffinity [NumTypes]float64
}

// GenerateUsers creates a population with sparse strong preferences,
// deterministic in seed.
func GenerateUsers(numUsers, numTopics int, seed int64) []User {
	rng := rand.New(rand.NewSource(seed))
	users := make([]User, numUsers)
	for i := range users {
		u := User{ID: i, TopicAffinity: make([]float64, numTopics)}
		for t := range u.TopicAffinity {
			u.TopicAffinity[t] = 1
		}
		// Two loved topics, two ignored ones.
		for k := 0; k < 2 && numTopics > 0; k++ {
			u.TopicAffinity[rng.Intn(numTopics)] = 2.5 + rng.Float64()
			u.TopicAffinity[rng.Intn(numTopics)] = 0.2 + 0.2*rng.Float64()
		}
		for t := range u.TypeAffinity {
			u.TypeAffinity[t] = math.Exp(0.25 * rng.NormFloat64())
		}
		users[i] = u
	}
	return users
}

// CTRFactor returns the user's multiplicative CTR adjustment for a concept.
func (u *User) CTRFactor(c *world.Concept) float64 {
	f := u.TypeAffinity[int(c.Type)%NumTypes]
	if c.Topic >= 0 && c.Topic < len(u.TopicAffinity) {
		f *= u.TopicAffinity[c.Topic]
	}
	return f
}

// Profile is the learned counterpart of a user's latent affinities: decayed
// per-topic and per-type view/click counters.
type Profile struct {
	topicViews, topicClicks []float64
	typeViews, typeClicks   [NumTypes]float64
	totalViews, totalClicks float64
}

// NewProfile creates an empty profile for a world with numTopics topics.
func NewProfile(numTopics int) *Profile {
	return &Profile{
		topicViews:  make([]float64, numTopics),
		topicClicks: make([]float64, numTopics),
	}
}

// Observe records one impression of a concept and whether the user clicked.
func (p *Profile) Observe(c *world.Concept, clicked bool) {
	click := 0.0
	if clicked {
		click = 1
	}
	p.totalViews++
	p.totalClicks += click
	p.typeViews[int(c.Type)%NumTypes]++
	p.typeClicks[int(c.Type)%NumTypes] += click
	if c.Topic >= 0 && c.Topic < len(p.topicViews) {
		p.topicViews[c.Topic]++
		p.topicClicks[c.Topic] += click
	}
}

// Views returns the number of impressions observed.
func (p *Profile) Views() float64 { return p.totalViews }

// smoothing mass pulls thin estimates toward the user's base rate.
const smoothing = 25

// Affinity estimates the user's CTR multiplier for a concept: the ratio of
// the user's smoothed topic/type CTR to their base CTR. 1 for unknown or
// thin history.
func (p *Profile) Affinity(c *world.Concept) float64 {
	if p.totalViews == 0 {
		return 1
	}
	base := p.totalClicks / p.totalViews
	if base == 0 {
		return 1
	}
	f := 1.0
	if c.Topic >= 0 && c.Topic < len(p.topicViews) {
		v, k := p.topicViews[c.Topic], p.topicClicks[c.Topic]
		rate := (k + smoothing*base) / (v + smoothing)
		f *= rate / base
	}
	tv, tk := p.typeViews[int(c.Type)%NumTypes], p.typeClicks[int(c.Type)%NumTypes]
	rate := (tk + smoothing*base) / (tv + smoothing)
	f *= rate / base
	return f
}

// topicCTRVector is the profile's smoothed per-topic CTR, the similarity
// space for collaborative filtering.
func (p *Profile) topicCTRVector() []float64 {
	out := make([]float64, len(p.topicViews))
	base := 0.0
	if p.totalViews > 0 {
		base = p.totalClicks / p.totalViews
	}
	for t := range out {
		out[t] = (p.topicClicks[t] + smoothing*base) / (p.topicViews[t] + smoothing)
	}
	return out
}

// Personalizer layers a profile over global ranking scores.
type Personalizer struct {
	Profile *Profile
	// Weight scales ln(affinity) against the global score. Default 1.
	Weight float64
}

// Rescore returns the personalized score for a concept.
func (pz *Personalizer) Rescore(globalScore float64, c *world.Concept) float64 {
	w := pz.Weight
	if w == 0 {
		w = 1
	}
	return globalScore + w*math.Log(pz.Profile.Affinity(c))
}

// Community holds many users' profiles for collaborative filtering.
type Community struct {
	Profiles []*Profile
}

// cosine over two vectors.
func cosine(a, b []float64) float64 {
	var dot, na, nb float64
	for i := range a {
		dot += a[i] * b[i]
		na += a[i] * a[i]
		nb += b[i] * b[i]
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / math.Sqrt(na*nb)
}

// Neighbors returns the indexes of the k profiles most similar to profile
// idx (excluding itself), ties broken by index.
func (cm *Community) Neighbors(idx, k int) []int {
	self := cm.Profiles[idx].topicCTRVector()
	type scored struct {
		i   int
		sim float64
	}
	var all []scored
	for i, p := range cm.Profiles {
		if i == idx {
			continue
		}
		all = append(all, scored{i, cosine(self, p.topicCTRVector())})
	}
	sort.Slice(all, func(a, b int) bool {
		if all[a].sim != all[b].sim {
			return all[a].sim > all[b].sim
		}
		return all[a].i < all[b].i
	})
	if k > len(all) {
		k = len(all)
	}
	out := make([]int, k)
	for i := 0; i < k; i++ {
		out[i] = all[i].i
	}
	return out
}

// BorrowMass controls how much topic-local history a user needs before
// their own estimate outweighs the community's: at BorrowMass impressions
// in the concept's topic the blend is 50/50.
const BorrowMass = 400

// BlendedAffinity mixes the user's own affinity with the mean affinity of
// their k nearest neighbors, weighted by how much history the user has *in
// this concept's topic* — a reader with years of sports clicks still
// borrows the community's taste the first time a medical entity comes up.
func (cm *Community) BlendedAffinity(idx, k int, c *world.Concept) float64 {
	own := cm.Profiles[idx]
	ownAff := own.Affinity(c)
	neighbors := cm.Neighbors(idx, k)
	if len(neighbors) == 0 {
		return ownAff
	}
	nb := 0.0
	for _, ni := range neighbors {
		nb += cm.Profiles[ni].Affinity(c)
	}
	nb /= float64(len(neighbors))
	// Confidence grows with topic-local evidence.
	local := own.totalViews
	if c.Topic >= 0 && c.Topic < len(own.topicViews) {
		local = own.topicViews[c.Topic]
	}
	conf := local / (local + BorrowMass)
	return conf*ownAff + (1-conf)*nb
}
