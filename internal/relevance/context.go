package relevance

import (
	"contextrank/internal/match"
	"contextrank/internal/stem"
	"contextrank/internal/textproc"
)

// This file is the context-scoring path. The dataset join in internal/core
// scores thousands of example windows, so a context is a generation-marked
// dense array over the store's stem vocabulary (Ctx), reused across contexts,
// with a token->stem-id memo so each distinct surface form is stemmed once
// per Ctx lifetime. oracle_test.go pins it to the map-based scorer it replaced.

// buildIndex interns every stored vector's terms into a store-local stem
// vocabulary and records each concept's term ids, aligned with its vector.
// Called once at construction (concepts visited in sorted order, so the
// vocabulary is deterministic); the store is immutable afterwards.
func (s *Store) buildIndex() {
	s.stemVoc = match.NewVocab()
	s.ids = make(map[string][]uint32, len(s.terms))
	for _, c := range s.Concepts() {
		v := s.terms[c]
		ids := make([]uint32, len(v))
		for i, e := range v {
			ids[i] = s.stemVoc.Intern(e.Term)
		}
		s.ids[c] = ids
	}
}

// Ctx is a reusable id-keyed context bound to one store: the stem set of the
// current context, marked in a dense array indexed by the store's stem ids.
// Generation counters make loading a new context O(context), with no
// clearing and no per-context allocation. A Ctx is not safe for concurrent
// use; give each worker its own.
type Ctx struct {
	store *Store
	mark  []uint32          // stem id -> generation of last sighting
	gen   uint32            // current context's generation
	memo  map[string]uint32 // surface token -> stem id (match.NoID if unknown to the store)
	toks  []textproc.Token  // pooled tokenizer buffer
}

// NewCtx creates a context scorer for the store.
func (s *Store) NewCtx() *Ctx {
	return &Ctx{
		store: s,
		mark:  make([]uint32, s.stemVoc.Len()),
		gen:   1, // mark zeros mean "never seen": an unset Ctx matches nothing
		memo:  make(map[string]uint32),
	}
}

// AcquireCtx returns a pooled Ctx for this store; pair with ReleaseCtx. The
// pool keeps each Ctx's stem memo warm across users.
func (s *Store) AcquireCtx() *Ctx {
	if c, ok := s.ctxPool.Get().(*Ctx); ok {
		return c
	}
	return s.NewCtx()
}

// ReleaseCtx returns a Ctx obtained from AcquireCtx to the pool.
func (s *Store) ReleaseCtx(c *Ctx) { s.ctxPool.Put(c) }

// SetText loads text as the current context: every stemmed content word the
// store knows is marked (a stem it does not know cannot contribute a score).
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
				id = c.store.stemVoc.ID(st)
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
// must have been created by this store.
func (s *Store) ScoreCtx(concept string, c *Ctx) float64 {
	score := 0.0
	v := s.terms[concept]
	for i, id := range s.ids[concept] {
		if c.mark[id] == c.gen {
			score += v[i].Weight
		}
	}
	return score
}

// NormalizedScoreCtx is ScoreCtx over the concept's keyword summation: the
// fraction, in [0,1], of its keyword confidence present in the context. The
// raw score carries the pack scale (Table II), a quality signal; this one
// isolates contextual coverage. The combined ranker uses both.
func (s *Store) NormalizedScoreCtx(concept string, c *Ctx) float64 {
	sum := s.terms[concept].Sum()
	if sum <= 0 {
		return 0
	}
	return s.ScoreCtx(concept, c) / sum
}
