package match

import (
	"encoding/binary"
	"sync/atomic"
	"unsafe"
)

// Vocab interns tokens to dense uint32 ids, assigned in first-Intern order.
// It is the one vocabulary type: the detection matchers', the search
// engine's, the query log's, the miner's stem dictionary and the runtime's
// Global TID table. The package comment states its layout and its
// concurrency contract; the zero value is not usable, call NewVocab.
type Vocab struct {
	table atomic.Pointer[vocabTable]
	ids   atomic.Pointer[[]*idChunk] // id -> packed term offset, in fixed chunks
	pages atomic.Pointer[[][]byte]   // the term bytes; a page never moves
	n     atomic.Uint32              // published term count

	// The writer's own state: its count (n trails it by the term being
	// published), and the ordinary page being filled and the bytes used of
	// it.
	len  uint32
	cur  int
	fill int
}

// vocabTable is one generation of the open-addressing hash table. A slot
// holds id+1 of the term it binds, 0 when empty. Growth publishes a whole
// new generation; a slot, once set, never changes.
type vocabTable struct {
	mask  uint32
	slots []atomic.Uint32
}

const (
	// idChunkBits sizes the offset chunks: 2^idChunkBits ids (2 KiB) each.
	idChunkBits = 9
	idChunkMask = 1<<idChunkBits - 1

	// A term's offset packs its page index above posBits and its position
	// in the page below, so an ordinary page holds at most maxPage bytes
	// and a vocabulary at most 2^(32-posBits) pages. Each ordinary page is
	// twice the last, from minPage, so a small vocabulary stays small.
	posBits = 16
	posMask = 1<<posBits - 1
	maxPage = 1 << posBits
	minPage = 1 << 10
)

type idChunk [1 << idChunkBits]uint32

// NewVocab returns an empty vocabulary.
func NewVocab() *Vocab {
	v := &Vocab{cur: -1}
	v.table.Store(&vocabTable{mask: 63, slots: make([]atomic.Uint32, 64)})
	v.ids.Store(new([]*idChunk))
	v.pages.Store(new([][]byte))
	return v
}

// Hash is the 64-bit FNV-1a hash of s: the vocabulary's probe hash, and the
// shard hash of searchsim's ResultCount memo.
func Hash(s string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}

// bytesView is b as a string without a copy. The vocabulary only hashes
// and compares it, or copies it into a page; it never keeps it.
func bytesView(b []byte) string { return unsafe.String(unsafe.SliceData(b), len(b)) }

// Intern returns the id of tok, assigning the next dense id on first sight.
// A new term's bytes are copied into the vocabulary's pages, so tok may be
// a substring of a document the vocabulary must not keep alive. Single
// writer only.
func (v *Vocab) Intern(tok string) uint32 {
	t := v.table.Load()
	id, i := v.find(t, tok)
	if id != NoID {
		return id
	}
	id = v.len
	v.store(id, tok)
	// The slot is stored after the term's bytes and offset, and the count
	// after the slot, so a reader that sees either can resolve the term.
	t.slots[i].Store(id + 1)
	v.len++
	v.n.Store(v.len)
	if v.len >= t.mask-t.mask>>2 { // keep the load factor under 3/4
		v.grow(t)
	}
	return id
}

// InternBytes is Intern for a token held as bytes, which are copied only
// when the token is new.
func (v *Vocab) InternBytes(tok []byte) uint32 { return v.Intern(bytesView(tok)) }

// store writes tok's uvarint length and bytes into a page and its packed
// offset into id's chunk, publishing a longer page or chunk list first when
// one opens. An ordinary page is filled until the next term does not fit;
// a term longer than maxPage gets an exact page of its own.
func (v *Vocab) store(id uint32, tok string) {
	need := uvarintLen(uint64(len(tok))) + len(tok)
	pages := *v.pages.Load()
	pi, pos := v.cur, v.fill
	switch {
	case need > maxPage:
		pi, pos = v.addPage(need), 0
	case pi < 0 || pos+need > len(pages[pi]):
		size := minPage
		if pi >= 0 {
			size = min(2*len(pages[pi]), maxPage)
		}
		for size < need {
			size <<= 1
		}
		v.cur, v.fill = v.addPage(size), need
		pi, pos = v.cur, 0
	default:
		v.fill += need
	}
	page := (*v.pages.Load())[pi]
	k := binary.PutUvarint(page[pos:], uint64(len(tok)))
	copy(page[pos+k:], tok)

	ids := *v.ids.Load()
	if ci := int(id >> idChunkBits); ci == len(ids) {
		grown := append(ids[:ci:ci], new(idChunk))
		v.ids.Store(&grown)
		ids = grown
	}
	ids[id>>idChunkBits][id&idChunkMask] = uint32(pi)<<posBits | uint32(pos)
}

// addPage publishes a new page of size bytes at the end of the page list
// and returns its index. The list is copied, never grown in place: a
// reader keeps the list it loaded.
func (v *Vocab) addPage(size int) int {
	pages := *v.pages.Load()
	pi := len(pages)
	if pi > posMask {
		panic("match: vocabulary pages exhausted")
	}
	grown := append(pages[:pi:pi], make([]byte, size))
	v.pages.Store(&grown)
	return pi
}

// grow publishes a table of twice the capacity holding every interned id.
// A reader mid-probe keeps the old table, which still binds every id it
// held.
func (v *Vocab) grow(old *vocabTable) {
	size := (old.mask + 1) * 2
	nt := &vocabTable{mask: size - 1, slots: make([]atomic.Uint32, size)}
	for id := uint32(0); id < v.len; id++ {
		j := uint32(Hash(v.Token(id))) & nt.mask
		for nt.slots[j].Load() != 0 {
			j = (j + 1) & nt.mask
		}
		nt.slots[j].Store(id + 1)
	}
	v.table.Store(nt)
}

func uvarintLen(x uint64) int {
	n := 1
	for ; x >= 0x80; x >>= 7 {
		n++
	}
	return n
}

// ID returns the id of tok, or NoID if tok was never interned (or, for a
// reader racing the writer, not yet published).
func (v *Vocab) ID(tok string) uint32 {
	id, _ := v.find(v.table.Load(), tok)
	return id
}

// find probes t for tok: its id and slot, or NoID and the empty slot that
// ends the probe.
func (v *Vocab) find(t *vocabTable, tok string) (id, slot uint32) {
	i := uint32(Hash(tok)) & t.mask
	for s := t.slots[i].Load(); s != 0; s = t.slots[i].Load() {
		if v.Token(s-1) == tok {
			return s - 1, i
		}
		i = (i + 1) & t.mask
	}
	return NoID, i
}

// IDBytes is ID for a token held as bytes; the lookup does not copy them.
func (v *Vocab) IDBytes(tok []byte) uint32 { return v.ID(bytesView(tok)) }

// Len returns the number of published tokens.
func (v *Vocab) Len() int { return int(v.n.Load()) }

// Token returns the token interned as id, for any id < Len(). The string
// is a slice of the vocabulary's page: reading it allocates nothing.
func (v *Vocab) Token(id uint32) string {
	off := (*v.ids.Load())[id>>idChunkBits][id&idChunkMask]
	p := (*v.pages.Load())[off>>posBits][off&posMask:]
	n, k := uint64(p[0]), 1
	if n >= 0x80 {
		n, k = binary.Uvarint(p)
	}
	if n == 0 {
		return ""
	}
	return bytesView(p[k : k+int(n)])
}

// AppendIDs appends the ids of tokens to dst and returns it. Unknown tokens
// map to NoID. The usual call site passes a pooled dst[:0], making the
// interning pass allocation-free in steady state.
//
//kw:hotpath
func (v *Vocab) AppendIDs(dst []uint32, tokens []string) []uint32 {
	for _, t := range tokens {
		dst = append(dst, v.ID(t))
	}
	return dst
}
