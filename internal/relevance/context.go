package relevance

import (
	"contextrank/internal/match"
	"contextrank/internal/stem"
	"contextrank/internal/textproc"
)

// This file is the context-scoring path. The dataset join in internal/core
// scores thousands of example windows, so a context is a generation-marked
// dense array over a stem dictionary (Ctx), reused across contexts, with a
// token->stem-id memo so each distinct surface form is stemmed once per Ctx
// lifetime. oracle_test.go pins it to the map-based scorer it replaced.

// Ctx is a reusable id-keyed context over one stem dictionary: the stem set
// of the current context, marked in a dense array indexed by the
// dictionary's ids. It scores every store whose keywords index that
// dictionary — the stores one miner builds share it (Miner.Dict) — so a
// window loaded once scores them all. Generation counters make loading a
// new context O(context), with no clearing and no per-context allocation.
// A Ctx is not safe for concurrent use; give each worker its own.
type Ctx struct {
	dict *match.Vocab
	mark []uint32          // stem id -> generation of last sighting
	gen  uint32            // current context's generation
	memo map[string]uint32 // surface token -> stem id (match.NoID if not in the dictionary)
	toks []textproc.Token  // pooled tokenizer buffer
}

// NewCtx creates a context scorer over a stem dictionary, which must not
// grow while the Ctx lives.
func NewCtx(dict *match.Vocab) *Ctx {
	return &Ctx{
		dict: dict,
		mark: make([]uint32, dict.Len()),
		gen:  1, // mark zeros mean "never seen": an unset Ctx matches nothing
		memo: make(map[string]uint32),
	}
}

// SetText loads text as the current context: every stemmed content word the
// dictionary knows is marked (no other stem can contribute a score).
func (c *Ctx) SetText(text string) {
	c.gen++
	if c.gen == 0 { // generation wrapped: reset the mark table
		clear(c.mark)
		c.gen = 1
	}
	c.toks = textproc.TokenizeInto(text, c.toks[:0])
	for _, t := range c.toks {
		if t.Kind == textproc.Punct || t.Norm == "" || textproc.IsStopword(t.Norm) {
			continue
		}
		id, ok := c.memo[t.Norm]
		if !ok {
			id = match.NoID
			if st := stem.Stem(t.Norm); st != "" {
				id = c.dict.ID(st)
			}
			c.memo[t.Norm] = id
		}
		if id != match.NoID {
			c.mark[id] = c.gen
		}
	}
}

// SetAround loads the local context of position — LocalWindow(text,
// position) — as SetText does.
func (c *Ctx) SetAround(text string, position int) {
	lo, hi := LocalWindow(text, position)
	c.SetText(text[lo:hi])
}

// ScoreCtx estimates the relevance of concept in the current context: the
// summed confidence of the concept's pre-mined keywords marked in it ("a
// reasonable approximation for the relevance of that concept can be computed
// based on the co-occurrences of the pre-mined keywords and the given concept
// in the context"). Raw scores are used, so low-quality concepts "almost
// never get a high relevance score in any context" (the safety net). The Ctx
// must be over the store's dictionary.
func (s *Store) ScoreCtx(concept string, c *Ctx) float64 {
	if c.dict != s.dict {
		panic("relevance: context over another stem dictionary")
	}
	score := 0.0
	for _, k := range s.keywords[concept] {
		if c.mark[k.Stem] == c.gen {
			score += k.Weight
		}
	}
	return score
}

// NormalizedScoreCtx is ScoreCtx over the concept's keyword summation: the
// fraction, in [0,1], of its keyword confidence present in the context. The
// raw score carries the pack scale (Table II), a quality signal; this one
// isolates contextual coverage. The combined ranker uses both.
func (s *Store) NormalizedScoreCtx(concept string, c *Ctx) float64 {
	sum := s.Summation(concept)
	if sum <= 0 {
		return 0
	}
	return s.ScoreCtx(concept, c) / sum
}
