package searchsim

// Vocab is the engine's term vocabulary: term string ↔ dense uint32 id, like
// internal/match.Vocab, but safe for concurrent lookups while one writer
// interns. The live two-tier engine needs exactly that shape: query
// goroutines resolve ids (ID/Token/Len) lock-free off a published snapshot
// while the single ingest writer — always under the engine's writer mutex —
// keeps interning new terms.
//
// Design (single-writer RCU):
//
//   - The hash table is open-addressing over atomic *vocabEntry slots. The
//     writer publishes a new entry with a release store; readers probe with
//     acquire loads, so an entry is either fully visible (tok and id set
//     before publish) or absent. Entries are never deleted or moved in
//     place, and growth swaps in a whole rebuilt table via the atomic table
//     pointer — a reader holds one consistent table for its whole probe.
//   - Tokens live in fixed-size chunks reachable from an atomic chunk-list
//     pointer. Chunks are append-only: Token(id) for any published id reads
//     storage that no longer changes.
//   - Len is an atomic counter stored after the entry publish, so a reader
//     that observes Len > id can always resolve Token(id).
//
// A reader racing the writer may miss the very newest terms (ID returns
// NoID); that is benign by construction — a term unknown to a query-time
// snapshot can only occur in documents beyond that snapshot's visibility
// horizon.

import (
	"strings"
	"sync/atomic"
)

// tokChunkBits sizes the token-store chunks (2^tokChunkBits tokens each).
const tokChunkBits = 11

const tokChunkSize = 1 << tokChunkBits

// vocabEntry is one published (token, id) binding. Immutable after publish.
type vocabEntry struct {
	tok string
	id  uint32
}

// vocabTable is one immutable-capacity open-addressing table generation.
type vocabTable struct {
	mask  uint32
	slots []atomic.Pointer[vocabEntry]
}

// Vocab is the concurrent term vocabulary. The zero value is not usable;
// call NewVocab.
type Vocab struct {
	table  atomic.Pointer[vocabTable]
	chunks atomic.Pointer[[]*[tokChunkSize]string]
	n      atomic.Int32

	// len is the writer's private count; n trails it by at most the entry
	// being published. All mutation happens on one goroutine at a time
	// (the bulk build before it publishes, or the engine writer lock).
	len int
}

// NewVocab creates an empty vocabulary.
func NewVocab() *Vocab {
	v := &Vocab{}
	t := &vocabTable{mask: 255, slots: make([]atomic.Pointer[vocabEntry], 256)}
	v.table.Store(t)
	chunks := make([]*[tokChunkSize]string, 0, 4)
	v.chunks.Store(&chunks)
	return v
}

// Intern returns the id of tok, assigning the next dense id on first sight.
// Single writer only: callers serialize Intern (the bulk build merges
// vocabularies on one goroutine; Add holds the engine writer mutex). A new
// term is stored as a copy: tok is usually a substring of a document, and
// keeping it would keep the whole document's text alive.
func (v *Vocab) Intern(tok string) uint32 {
	t := v.table.Load()
	i := uint32(fnv64a(tok)) & t.mask
	for {
		e := t.slots[i].Load()
		if e == nil {
			break
		}
		if e.tok == tok {
			return e.id
		}
		i = (i + 1) & t.mask
	}
	id := uint32(v.len)
	tok = strings.Clone(tok)
	v.setToken(id, tok)
	// Release-store after the token is reachable, so a reader that finds
	// the entry can always resolve Token(id).
	t.slots[i].Store(&vocabEntry{tok: tok, id: id})
	v.len++
	v.n.Store(int32(v.len))
	if uint32(v.len) >= t.mask-(t.mask>>2) { // keep load factor under ~3/4
		v.grow(t)
	}
	return id
}

// grow rebuilds the table at twice the capacity and publishes it whole.
// Readers mid-probe keep their old table — every published entry is in both.
func (v *Vocab) grow(old *vocabTable) {
	size := (old.mask + 1) * 2
	nt := &vocabTable{mask: size - 1, slots: make([]atomic.Pointer[vocabEntry], size)}
	for si := range old.slots {
		e := old.slots[si].Load()
		if e == nil {
			continue
		}
		j := uint32(fnv64a(e.tok)) & nt.mask
		for nt.slots[j].Load() != nil {
			j = (j + 1) & nt.mask
		}
		nt.slots[j].Store(e)
	}
	v.table.Store(nt)
}

// setToken stores tok at id in the chunked token store, growing the chunk
// list copy-on-write when id opens a new chunk.
func (v *Vocab) setToken(id uint32, tok string) {
	ci, off := int(id>>tokChunkBits), id&(tokChunkSize-1)
	chunks := *v.chunks.Load()
	if ci == len(chunks) {
		grown := make([]*[tokChunkSize]string, ci+1)
		copy(grown, chunks)
		grown[ci] = new([tokChunkSize]string)
		v.chunks.Store(&grown)
		chunks = grown
	}
	chunks[ci][off] = tok
}

// ID returns the id of tok, or match.NoID when tok was never interned.
// Safe for concurrent use with one writer.
func (v *Vocab) ID(tok string) uint32 {
	t := v.table.Load()
	i := uint32(fnv64a(tok)) & t.mask
	for {
		e := t.slots[i].Load()
		if e == nil {
			return noTermID
		}
		if e.tok == tok {
			return e.id
		}
		i = (i + 1) & t.mask
	}
}

// Len returns the number of interned terms. Safe for concurrent use.
func (v *Vocab) Len() int { return int(v.n.Load()) }

// Token returns the token for a published id. Safe for concurrent use for
// any id < Len().
func (v *Vocab) Token(id uint32) string {
	chunks := *v.chunks.Load()
	return chunks[id>>tokChunkBits][id&(tokChunkSize-1)]
}
