package searchsim

// Test-only readers of the engine and the serial full-merge reference.

// Doc is one visible document as Engine.Doc returns it: a copy of the
// engine's record, whose token ids are read through Len and AppendTokens.
type Doc struct {
	// ID is the document's id, its index in the engine's document store.
	ID int
	// Topic is the generating topic (metadata for tests; -1 if unknown).
	Topic int

	toks []byte // uvarint token ids, a slice of an immutable arena
	n    int
}

// Len returns the document's token count.
func (d Doc) Len() int { return d.n }

// AppendTokens appends the document's normalized word tokens (punctuation
// removed), interned to vocabulary ids, to dst and returns the extended
// slice. Engine.Vocab().Token recovers the strings.
func (d Doc) AppendTokens(dst []uint32) []uint32 { return decodeUvarints(dst, d.toks, d.n) }

// Doc returns a copy of the visible document with the given ID; ok is
// false when no visible document has it.
func (e *Engine) Doc(id int) (d Doc, ok bool) {
	v := e.cur.Load()
	if id < 0 || id >= len(v.docs) {
		return Doc{}, false
	}
	r := v.docs[id]
	return Doc{ID: id, Topic: int(r.topic), toks: r.toks, n: int(v.lens[id])}, true
}

// CompactAll merges the whole published segment stack into one frozen
// segment — the full-merge used by the differential suite to compare an
// Add-grown engine's frozen image against the bulk-built one. Pending memtable
// docs are not included; Commit first to publish them. Returns whether a
// merge ran (false when the stack is already a single frozen segment).
func (e *Engine) CompactAll() bool {
	e.compactMu.Lock()
	defer e.compactMu.Unlock()
	e.mu.Lock()
	segs := append([]*segment(nil), e.segs...)
	e.mu.Unlock()
	if len(segs) == 0 || (len(segs) == 1 && segs[0].frozen != nil) {
		return false
	}
	merged := mergeSegments(segs, 0)
	e.installMerged(segs, 0, len(segs), merged)
	return true
}
