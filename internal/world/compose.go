package world

import (
	"math/rand"
	"sync"
	"unicode/utf8"
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

// Connectives glue generated sentences into prose-like text so boundary
// detection, stop-word removal and tf·idf see realistic structure. A Sink's
// Connective(i) writes Connectives[i]. Read-only.
var Connectives = []string{"the", "a", "of", "in", "and", "to", "with", "for", "on", "as"}

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

// A Sink receives a composed document in writing order. ComposeTo makes
// every random draw and tells the sink only what to write, so two sinks
// fed the same world, options, mentions and seed see the same document:
// ComposeDoc's sink writes it as prose, the search corpus's
// (internal/searchsim) as token ids. first marks a sentence's first word.
type Sink interface {
	// BeginSentence starts sentence s, counted from 0.
	BeginSentence(s int)
	// Term writes the vocabulary word w.Vocab[id].
	Term(id int, first bool)
	// Connective writes Connectives[i].
	Connective(i int, first bool)
	// ContextTerm writes c.ContextTerms[i].
	ContextTerm(c *Concept, i int, first bool)
	// Mention writes the name of c, the concept of mentions[i].
	Mention(i int, c *Concept, first bool)
	// EndSentence ends the sentence.
	EndSentence()
}

// mentionSlot is one planned mention occurrence: mentions[idx], m. The
// plan's bySent says which sentence carries it.
type mentionSlot struct {
	m   *Mention
	idx int
}

// composeScratch is the pooled per-call state of the composer: the
// sentence-occupancy table, the slot plan and ComposeDoc's text sink.
// clicksim composes a document per story and the search corpus one per
// corpus document, so this state is rented and returned per call rather
// than reallocated; only ComposeDoc's returned text and placements are
// fresh allocations.
type composeScratch struct {
	used   []bool
	slots  []mentionSlot
	bySent []int32 // sentence -> slot index, -1 when none
	text   textSink
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
	c := composePool.Get().(*composeScratch)
	t := &c.text
	t.vocab, t.buf, t.placed = w.Vocab, t.buf[:0], t.placed[:0]
	w.compose(c, t, opts, mentions, rng)
	text := string(t.buf)
	var placements []Placement
	if len(t.placed) > 0 {
		placements = make([]Placement, len(t.placed))
		copy(placements, t.placed)
	}
	t.vocab = nil
	composePool.Put(c)
	return text, placements
}

// ComposeTo composes the document ComposeDoc would, drawing the same
// values from rng, and writes it into s instead of into text.
func (w *World) ComposeTo(s Sink, opts ComposeOptions, mentions []Mention, rng *rand.Rand) {
	c := composePool.Get().(*composeScratch)
	w.compose(c, s, opts, mentions, rng)
	composePool.Put(c)
}

// compose is the composer: it plans which sentences carry which mention,
// then draws each sentence into s.
func (w *World) compose(c *composeScratch, s Sink, opts ComposeOptions, mentions []Mention, rng *rand.Rand) {
	opts = opts.withDefaults()
	topic := &w.Topics[opts.Topic%len(w.Topics)]

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
			slots = append(slots, mentionSlot{m: &mentions[i], idx: i})
		}
	}

	for si := 0; si < numSentences; si++ {
		var m *Mention
		idx := -1
		if k := bySent[si]; k >= 0 {
			m, idx = slots[k].m, slots[k].idx
		}
		s.BeginSentence(si)
		w.composeSentence(s, topic, m, idx, opts, rng)
		s.EndSentence()
	}
	c.slots = slots
}

// composeSentence draws one sentence into s; m (mentions[idx]) is the
// mention the sentence carries, or nil.
func (w *World) composeSentence(s Sink, topic *Topic, m *Mention, idx int, opts ComposeOptions, rng *rand.Rand) {
	length := wordsPerSentence/2 + rng.Intn(wordsPerSentence)
	mentionAt := -1
	if m != nil {
		mentionAt = rng.Intn(length)
	}
	for i := 0; i < length; i++ {
		first := i == 0
		switch {
		case i == mentionAt:
			s.Mention(idx, m.Concept, first)
		case m != nil && m.Relevant && m.Concept.Topic >= 0 && rng.Float64() < opts.ContextDensity*densityScale(m)*(0.3+float64(0.7*m.Concept.Specificity)):
			// Relevant mentions pull in the concept's own context terms;
			// how strongly depends on specificity, which is what makes
			// snippet mining cluster for specific concepts.
			s.ContextTerm(m.Concept, rng.Intn(len(m.Concept.ContextTerms)), first)
		case rng.Float64() < 0.22:
			s.Connective(rng.Intn(len(Connectives)), first)
		default:
			s.Term(w.SampleTermID(topic, rng), first)
		}
	}
}

// textSink is ComposeDoc's sink: the document as prose in buf — words
// joined by spaces, sentences ended by a period, a paragraph break before
// every fourth sentence, a sentence's first word and every named entity
// capitalized — and the byte offset of each mention's name.
type textSink struct {
	vocab  []string
	buf    []byte
	placed []Placement
}

func (t *textSink) BeginSentence(s int) {
	if s > 0 {
		if s%4 == 0 {
			t.buf = append(t.buf, "\n\n"...)
		} else {
			t.buf = append(t.buf, ' ')
		}
	}
}

func (t *textSink) Term(id int, first bool)      { t.word(t.vocab[id], first) }
func (t *textSink) Connective(i int, first bool) { t.word(Connectives[i], first) }
func (t *textSink) ContextTerm(c *Concept, i int, first bool) {
	t.word(c.ContextTerms[i], first)
}

func (t *textSink) Mention(i int, c *Concept, first bool) {
	if !first {
		t.buf = append(t.buf, ' ')
	}
	t.placed = append(t.placed, Placement{MentionIndex: i, Offset: len(t.buf)})
	if c.Type != TypeNone || first {
		t.buf = appendTitle(t.buf, c.Name)
	} else {
		t.buf = append(t.buf, c.Name...)
	}
}

func (t *textSink) EndSentence() { t.buf = append(t.buf, '.') }

// word appends one word after a space, capitalizing the leading ASCII
// letter of a sentence's first word in place (the generated vocabulary is
// ASCII).
func (t *textSink) word(word string, first bool) {
	if !first {
		t.buf = append(t.buf, ' ')
	}
	at := len(t.buf)
	t.buf = append(t.buf, word...)
	if first && len(word) > 0 && word[0] >= 'a' && word[0] <= 'z' {
		t.buf[at] = word[0] - 'a' + 'A'
	}
}

// appendTitle appends TitleCase(name) to buf, capitalizing in place: an
// ASCII name's words are copied with their leading letter upper-cased and
// joined by single spaces. Any other name goes through TitleCase itself.
func appendTitle(buf []byte, name string) []byte {
	for i := 0; i < len(name); i++ {
		if name[i] >= utf8.RuneSelf {
			return append(buf, TitleCase(name)...)
		}
	}
	n := len(buf)
	for i := 0; i < len(name); {
		if asciiSpace(name[i]) {
			i++
			continue
		}
		if len(buf) > n {
			buf = append(buf, ' ')
		}
		at := len(buf)
		for i < len(name) && !asciiSpace(name[i]) {
			buf = append(buf, name[i])
			i++
		}
		if c := buf[at]; c >= 'a' && c <= 'z' {
			buf[at] = c - 'a' + 'A'
		}
	}
	return buf
}

// asciiSpace reports whether c is white space to strings.Fields.
func asciiSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' || c == '\r'
}

func densityScale(m *Mention) float64 {
	if m.DensityScale == 0 {
		return 1
	}
	return m.DensityScale
}
