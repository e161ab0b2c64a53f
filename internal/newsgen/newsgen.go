// Package newsgen generates the synthetic news traffic that stands in for
// the paper's Yahoo! News stories (§III, §V-A.1): stories composed from the
// world's topic model, embedding a mix of relevant concepts, irrelevant but
// potentially interesting off-topic entities (the paper's "Texas in a story
// about Cuba policy" case), and the occasional low-quality phrase that the
// naive candidate generation lets through.
package newsgen

import (
	"math/rand"
	"sort"

	"contextrank/internal/world"
)

// Mention is one annotated concept occurrence in a story.
type Mention struct {
	// Concept is the annotated concept.
	Concept *world.Concept
	// Relevant is the ground-truth contextual relevance of this mention
	// (true when the story is about the concept's topic).
	Relevant bool
	// Degree grades the relevance in [0,1]: how strongly the story
	// contextualizes the concept. Relevant mentions range from lightly
	// glossed (~0.35) to central (1.0); irrelevant asides sit near 0.
	Degree float64
	// Position is the byte offset of the first occurrence in Story.Text
	// (the paper's per-entity "position in text" metadata).
	Position int
}

// Story is one news story with its annotated entities.
type Story struct {
	// ID is the story index.
	ID int
	// Topic is the story's primary topic.
	Topic int
	// Text is the story body (plain text).
	Text string
	// Mentions are the annotated concepts, sorted by position.
	Mentions []Mention
}

// Config parameterizes story generation.
type Config struct {
	Seed       int64
	NumStories int // default 300

	// MinConcepts/MaxConcepts bound the annotated concepts per story.
	// Defaults 3 and 9 (the paper's cleaned set averages 6420/870 ≈ 7.4).
	MinConcepts, MaxConcepts int
	// MinSentences/MaxSentences bound story length. Defaults 10 and 60
	// (long stories span multiple 2500-char windows, as in the paper).
	MinSentences, MaxSentences int
}

// The mention mix of a story's annotation slots.
const (
	// irrelevantFraction is the chance each non-low-quality slot is filled
	// with an off-topic concept.
	irrelevantFraction float64 = 0.3
	// lowQualityFraction is the chance a slot is filled with a low-quality
	// phrase.
	lowQualityFraction float64 = 0.12
)

func (c Config) withDefaults() Config {
	if c.NumStories == 0 {
		c.NumStories = 300
	}
	if c.MinConcepts == 0 {
		c.MinConcepts = 3
	}
	if c.MaxConcepts == 0 {
		c.MaxConcepts = 9
	}
	if c.MinSentences == 0 {
		c.MinSentences = 10
	}
	if c.MaxSentences == 0 {
		c.MaxSentences = 60
	}
	return c
}

// Generate produces stories from the world, deterministic in cfg.Seed.
func Generate(w *world.World, cfg Config) []Story {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))

	// Index concepts by topic, plus pools for irrelevant/low-quality picks.
	byTopic := make(map[int][]*world.Concept)
	var lowQuality, all []*world.Concept
	for i := range w.Concepts {
		c := &w.Concepts[i]
		if c.LowQuality() {
			lowQuality = append(lowQuality, c)
			continue
		}
		all = append(all, c)
		if c.Topic >= 0 {
			byTopic[c.Topic] = append(byTopic[c.Topic], c)
		}
	}

	stories := make([]Story, 0, cfg.NumStories)
	for id := 0; id < cfg.NumStories; id++ {
		// Editorial prose contextualizes entities unevenly across stories:
		// some stories surround their subjects with dense distinctive
		// vocabulary, others barely gloss them. The factor folds into each
		// mention's relevance degree, so the degree measures the actual
		// contextualization a reader (and the click model) sees.
		storyDensity := 0.55 + float64(0.45*rng.Float64())
		topic := rng.Intn(len(w.Topics))
		if len(byTopic[topic]) < cfg.MinConcepts {
			// Resample a topic with enough concepts.
			for len(byTopic[topic]) < cfg.MinConcepts {
				topic = rng.Intn(len(w.Topics))
			}
		}
		n := cfg.MinConcepts + rng.Intn(cfg.MaxConcepts-cfg.MinConcepts+1)
		picked := make(map[int]bool)
		var mentions []world.Mention
		var meta []Mention
		for len(meta) < n {
			var c *world.Concept
			relevant := false
			switch r := rng.Float64(); {
			case r < lowQualityFraction && len(lowQuality) > 0:
				c = lowQuality[rng.Intn(len(lowQuality))]
			case r < lowQualityFraction+irrelevantFraction:
				// Off-topic mention, biased toward interesting concepts:
				// "even though it may be interesting to some users" —
				// irrelevant entities are often celebrity-grade.
				c = all[rng.Intn(len(all))]
				if c.Interest < 0.3 && rng.Float64() < 0.5 {
					c = all[rng.Intn(len(all))]
				}
				relevant = c.Topic == topic
			default:
				pool := byTopic[topic]
				c = pool[rng.Intn(len(pool))]
				relevant = true
			}
			if picked[c.ID] {
				continue
			}
			picked[c.ID] = true
			// Graded relevance: central subjects are both repeated and
			// surrounded by dense distinctive vocabulary; peripheral
			// on-topic mentions are lightly glossed; off-topic asides get
			// almost no contextual support. The repetition also gives the
			// tf-based concept-vector baseline its production-grade signal.
			degree := 0.02 + float64(0.1*rng.Float64())
			repeat := 1
			if relevant {
				degree = (0.3 + float64(0.7*rng.Float64())) * storyDensity
				repeat = 1 + rng.Intn(1+int(3*degree))
			}
			mentions = append(mentions, world.Mention{Concept: c, Relevant: relevant, DensityScale: degree, Repeat: repeat})
			meta = append(meta, Mention{Concept: c, Relevant: relevant, Degree: degree})
		}

		sentences := cfg.MinSentences + rng.Intn(cfg.MaxSentences-cfg.MinSentences+1)
		// ContextDensity 1.0: each mention's own DensityScale (= degree)
		// fully controls how much distinctive vocabulary surrounds it.
		text, placements := w.ComposeDoc(world.ComposeOptions{
			Topic:          topic,
			Sentences:      sentences,
			ContextDensity: 1.0,
		}, mentions, rng)

		// Anchor each mention to its first deliberate placement — concept
		// names are ordinary vocabulary and can also occur incidentally, so
		// substring search would mislocate the annotation.
		for i := range meta {
			meta[i].Position = -1
		}
		for _, pl := range placements {
			if meta[pl.MentionIndex].Position < 0 || pl.Offset < meta[pl.MentionIndex].Position {
				meta[pl.MentionIndex].Position = pl.Offset
			}
		}
		for i := range meta {
			if meta[i].Position < 0 {
				meta[i].Position = 0
			}
		}
		sort.Slice(meta, func(a, b int) bool { return meta[a].Position < meta[b].Position })
		stories = append(stories, Story{ID: id, Topic: topic, Text: text, Mentions: meta})
	}
	return stories
}
