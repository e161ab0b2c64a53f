package world

import (
	"math/rand"
	"sync"
)

// Mention describes one concept occurrence to embed in a composed document.
type Mention struct {
	// Concept is the concept to mention.
	Concept *Concept
	// Relevant controls whether the mention is surrounded by the concept's
	// own context terms (a relevant, on-topic mention) or dropped into
	// unrelated prose (the "Texas in a Cuba-policy story" case).
	Relevant bool
	// DensityScale grades how strongly a relevant mention is
	// contextualized: it multiplies the effective context density for this
	// mention's sentences. 0 means 1 (full). Lightly-contextualized
	// mentions model the paper's "Somewhat Relevant" middle ground.
	DensityScale float64
	// Repeat is how many times to mention the concept (min 1).
	Repeat int
}

// ComposeOptions controls document composition.
type ComposeOptions struct {
	// Topic is the primary topic index of the document.
	Topic int
	// Sentences is the approximate number of sentences. Default 12.
	Sentences int
	// ContextDensity in [0,1] is the probability that a word in a sentence
	// carrying a relevant mention is drawn from the mentioned concept's
	// ContextTerms rather than from the topic at large. Specific concepts
	// are composed with higher density by callers. Default 0.45.
	ContextDensity float64
}

func (o ComposeOptions) withDefaults() ComposeOptions {
	if o.Sentences == 0 {
		o.Sentences = 12
	}
	if o.ContextDensity == 0 {
		o.ContextDensity = 0.45
	}
	return o
}

// wordsPerSentence is the approximate length of a composed sentence.
const wordsPerSentence = 12

// connectives glue generated sentences into prose-like text so boundary
// detection, stop-word removal and tf·idf see realistic structure.
var connectives = []string{"the", "a", "of", "in", "and", "to", "with", "for", "on", "as"}

// Placement records where a mention's name was written in the composed
// text. Concept names can also occur incidentally elsewhere in the prose
// (they are ordinary vocabulary); Placement identifies the deliberate
// mention, which is what click instrumentation anchors to.
type Placement struct {
	// MentionIndex indexes the mentions slice passed to ComposeDoc.
	MentionIndex int
	// Offset is the byte offset of the written name.
	Offset int
}

// mentionSlot is one planned mention occurrence: which mention goes into
// which sentence.
type mentionSlot struct {
	m        *Mention
	idx      int
	sentence int
}

// composeScratch is the pooled per-call state of ComposeDoc: the byte
// builder, the sentence-occupancy table, and the slot plan. clicksim
// composes a document per story, so this state is rented and returned per
// call rather than reallocated; only the returned text and placements are
// fresh allocations.
type composeScratch struct {
	buf    []byte
	used   []bool
	slots  []mentionSlot
	bySent []int32 // sentence -> slot index, -1 when none
}

var composePool = sync.Pool{New: func() any { return new(composeScratch) }}

// ComposeDoc generates a document about the given topic that embeds the
// given mentions, returning the text and the placement of each deliberate
// mention occurrence. Mentions with Relevant=true are placed in sentences
// that also carry the concept's context terms; irrelevant mentions are
// placed in ordinary topical sentences. The text is plain prose with
// sentences and paragraphs; concept names appear verbatim (title-cased for
// named entities) so detectors can find them.
//
//kw:fresh
func (w *World) ComposeDoc(opts ComposeOptions, mentions []Mention, rng *rand.Rand) (string, []Placement) {
	opts = opts.withDefaults()
	topic := &w.Topics[opts.Topic%len(w.Topics)]
	c := composePool.Get().(*composeScratch)

	// Plan which sentences carry which mention.
	total := 0
	for i := range mentions {
		r := mentions[i].Repeat
		if r < 1 {
			r = 1
		}
		total += r
	}
	numSentences := opts.Sentences
	if numSentences < total {
		numSentences = total + 2
	}
	if cap(c.used) < numSentences {
		c.used = make([]bool, numSentences)
		c.bySent = make([]int32, numSentences)
	}
	used := c.used[:numSentences]
	bySent := c.bySent[:numSentences]
	for i := range used {
		used[i] = false
		bySent[i] = -1
	}
	slots := c.slots[:0]
	for i := range mentions {
		r := mentions[i].Repeat
		if r < 1 {
			r = 1
		}
		for k := 0; k < r; k++ {
			s := rng.Intn(numSentences)
			for used[s] {
				s = (s + 1) % numSentences
			}
			used[s] = true
			bySent[s] = int32(len(slots))
			slots = append(slots, mentionSlot{m: &mentions[i], idx: i, sentence: s})
		}
	}

	buf := c.buf[:0]
	var placements []Placement
	if len(slots) > 0 {
		placements = make([]Placement, 0, len(slots))
	}
	for s := 0; s < numSentences; s++ {
		if s > 0 {
			if s%4 == 0 {
				buf = append(buf, "\n\n"...)
			} else {
				buf = append(buf, ' ')
			}
		}
		var m *Mention
		idx := -1
		if si := bySent[s]; si >= 0 {
			m, idx = slots[si].m, slots[si].idx
		}
		var offset int
		buf, offset = w.composeSentence(buf, topic, m, opts, rng)
		if m != nil && offset >= 0 {
			placements = append(placements, Placement{MentionIndex: idx, Offset: offset})
		}
	}
	text := string(buf)
	c.buf = buf
	c.slots = slots
	composePool.Put(c)
	return text, placements
}

// composeSentence appends one sentence to buf, returning the grown buffer
// and the byte offset where the mention name was written (-1 if no
// mention).
func (w *World) composeSentence(buf []byte, topic *Topic, m *Mention, opts ComposeOptions, rng *rand.Rand) ([]byte, int) {
	length := wordsPerSentence/2 + rng.Intn(wordsPerSentence)
	mentionAt := -1
	if m != nil {
		mentionAt = rng.Intn(length)
	}
	mentionOffset := -1
	first := true
	for i := 0; i < length; i++ {
		if !first {
			buf = append(buf, ' ')
		}
		switch {
		case i == mentionAt:
			name := m.Concept.Name
			if m.Concept.Type != TypeNone {
				name = TitleCase(name)
			}
			if first {
				name = TitleCase(name)
			}
			mentionOffset = len(buf)
			buf = append(buf, name...)
		case m != nil && m.Relevant && m.Concept.Topic >= 0 && rng.Float64() < opts.ContextDensity*densityScale(m)*(0.3+0.7*m.Concept.Specificity):
			// Relevant mentions pull in the concept's own context terms;
			// how strongly depends on specificity, which is what makes
			// snippet mining cluster for specific concepts.
			ct := m.Concept.ContextTerms
			buf = appendWord(buf, ct[rng.Intn(len(ct))], first)
		case rng.Float64() < 0.22:
			buf = appendWord(buf, connectives[rng.Intn(len(connectives))], first)
		default:
			buf = appendWord(buf, w.SampleTerm(topic, rng), first)
		}
		first = false
	}
	buf = append(buf, '.')
	return buf, mentionOffset
}

// appendWord appends word, capitalizing the leading ASCII letter in place
// when cap is set — the allocation-free equivalent of the old
// ToUpper(word[:1]) + word[1:] (the generated vocabulary is ASCII).
func appendWord(buf []byte, word string, cap bool) []byte {
	at := len(buf)
	buf = append(buf, word...)
	if cap && len(word) > 0 && word[0] >= 'a' && word[0] <= 'z' {
		buf[at] = word[0] - 'a' + 'A'
	}
	return buf
}

func densityScale(m *Mention) float64 {
	if m.DensityScale == 0 {
		return 1
	}
	return m.DensityScale
}
