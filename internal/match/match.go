// Package match implements the shared multi-pattern phrase matcher behind
// the detection hot path: a vocabulary table interning every normalized
// token that occurs in any pattern to a dense uint32 id, and a token-level
// trie over those ids, compiled into arrays. A document is matched in a
// single pass — tokens are interned once, then each position performs a
// longest-match trie walk: one array read for the first token, one binary
// search of a node's sorted children for each later one, and no allocation.
//
// The matcher preserves the greedy-longest semantics of the scanners it
// replaced (the string scanners of taxonomy and units): at
// each token position the longest pattern starting there is reported, and
// positions advance by one token regardless of matches, so nested phrases
// at later positions are still found. DESIGN.md §10 records the
// performance contract.
//
// Vocab is every interned table in the system, so it keeps nothing per
// term but bytes and two uint32s. A term's uvarint length and bytes go in
// append-only byte pages that are never reallocated; its id indexes
// fixed-size chunks of uint32 offsets into those pages; and the
// open-addressing hash table (FNV-1a, linear probing) holds id+1 per slot.
// Ids are dense and assigned in first-Intern order.
//
// Vocab is single-writer, lock-free-reader (RCU): one goroutine at a time
// may Intern — the search engine's under its writer mutex, every other
// vocabulary while it is built — while any number of goroutines call ID,
// IDBytes, Token, Len and AppendIDs.
//
//   - The page list, the chunk list and the table are each reached through
//     an atomic pointer and replaced whole (copied, or rebuilt at twice
//     the size) when they grow, so a reader holds one consistent
//     generation of each. Pages and chunks are shared between generations
//     and only ever written past what has been published.
//   - A term's bytes and offset are written before its slot is stored,
//     and the slot before Len moves, so a reader that finds a slot or
//     observes Len > id resolves Token(id) through lists at least as new.
//   - A reader racing the writer may miss the newest terms (ID returns
//     NoID): a search-engine term unknown to a query's snapshot occurs
//     only in documents beyond that snapshot's visibility horizon.
package match

import "slices"

// NoID marks a token that is not part of any pattern's vocabulary. No trie
// edge carries it, so a walk stops at the first unknown token.
const NoID = ^uint32(0)

// noPattern marks a trie node that terminates no pattern.
const noPattern = int32(-1)

// noChild marks a root token that starts no pattern.
const noChild = int32(-1)

// Builder accumulates patterns and compiles the trie.
type Builder struct {
	vocab    *Vocab
	pattern  []int32          // node -> pattern id (noPattern if interior)
	edges    map[uint64]int32 // (node, token id) -> child node
	patterns int
}

// NewBuilder returns a builder interning into vocab (a fresh vocabulary if
// nil). Sharing one vocabulary across builders lets callers intern a
// document once for several matchers.
func NewBuilder(vocab *Vocab) *Builder {
	if vocab == nil {
		vocab = NewVocab()
	}
	return &Builder{
		vocab:   vocab,
		pattern: []int32{noPattern}, // root
		edges:   make(map[uint64]int32),
	}
}

// Vocab returns the builder's vocabulary.
func (b *Builder) Vocab() *Vocab { return b.vocab }

func edgeKey(node int32, tok uint32) uint64 {
	return uint64(node)<<32 | uint64(tok)
}

// Add registers a pattern given as its token sequence and returns its
// pattern id (dense, in Add order). Adding the same token sequence twice
// returns the first id. Empty patterns are rejected with id -1.
func (b *Builder) Add(terms []string) int {
	if len(terms) == 0 {
		return -1
	}
	node := int32(0)
	for _, t := range terms {
		id := b.vocab.Intern(t)
		key := edgeKey(node, id)
		child, ok := b.edges[key]
		if !ok {
			child = int32(len(b.pattern))
			b.pattern = append(b.pattern, noPattern)
			b.edges[key] = child
		}
		node = child
	}
	if p := b.pattern[node]; p != noPattern {
		return int(p)
	}
	p := int32(b.patterns)
	b.pattern[node] = p
	b.patterns++
	return int(p)
}

// Build compiles the trie into arrays: the root's children into a dense
// slice indexed by token id, every other node's into a run of the edge
// slice sorted by token. It sorts the edges once and drops the builder's
// edge map; the builder must not be reused afterwards.
func (b *Builder) Build() *Matcher {
	m := &Matcher{
		pattern: b.pattern,
		root:    make([]int32, b.vocab.Len()),
		first:   make([]int32, len(b.pattern)+1),
		edges:   make([]edge, 0, len(b.edges)),
	}
	for i := range m.root {
		m.root[i] = noChild
	}
	keys := make([]uint64, 0, len(b.edges))
	for k := range b.edges {
		keys = append(keys, k)
	}
	slices.Sort(keys) // by node, then token
	for _, k := range keys {
		node, tok, child := int32(k>>32), uint32(k), b.edges[k]
		if node == 0 {
			m.root[tok] = child
			continue
		}
		m.edges = append(m.edges, edge{tok: tok, child: child})
		m.first[node+1]++
	}
	for n := 1; n < len(m.first); n++ {
		m.first[n] += m.first[n-1]
	}
	b.edges = nil
	return m
}

// edge is one trie edge out of a non-root node.
type edge struct {
	tok   uint32
	child int32
}

// Matcher is the compiled token-trie. It is immutable and safe for
// concurrent use.
type Matcher struct {
	pattern []int32 // node -> pattern id (noPattern if interior)
	// root is the root's child per token id (noChild: no pattern starts
	// with the token). Ids interned into a shared vocabulary after Build
	// lie past its end.
	root []int32
	// edges[first[n]:first[n+1]] are node n's children, sorted by token.
	first []int32
	edges []edge
}

// LongestAt walks the trie from position i of ids and returns the pattern
// id and end position (exclusive) of the longest pattern starting at i.
// ok is false when no pattern starts there. The first token costs one
// array read, each later one a binary search of the node's children; the
// walk allocates nothing.
//
//kw:hotpath
func (m *Matcher) LongestAt(ids []uint32, i int) (pattern, end int, ok bool) {
	if i >= len(ids) || uint64(ids[i]) >= uint64(len(m.root)) { // NoID is past every root
		return 0, 0, false
	}
	node := m.root[ids[i]]
	best := noPattern
	for j := i + 1; node != noChild; j++ {
		if p := m.pattern[node]; p != noPattern {
			best, end = p, j
		}
		if j == len(ids) {
			break
		}
		node = m.child(node, ids[j])
	}
	if best == noPattern {
		return 0, 0, false
	}
	return int(best), end, true
}

// child returns node's child along tok, or noChild.
func (m *Matcher) child(node int32, tok uint32) int32 {
	lo, hi := m.first[node], m.first[node+1]
	for lo < hi {
		mid := int32(uint32(lo+hi) >> 1)
		if m.edges[mid].tok < tok {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < m.first[node+1] && m.edges[lo].tok == tok {
		return m.edges[lo].child
	}
	return noChild
}
