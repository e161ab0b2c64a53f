package searchsim

import (
	"encoding/binary"
	"math"
	"slices"
	"testing"

	"contextrank/internal/textproc"
)

// idsBytes packs ids little-endian, four bytes each: FuzzDocTokens' input
// form of an id sequence.
func idsBytes(ids ...uint32) []byte {
	b := make([]byte, 0, 4*len(ids))
	for _, id := range ids {
		b = binary.LittleEndian.AppendUint32(b, id)
	}
	return b
}

// FuzzDocTokens holds the forward index's uvarint coding to the identity:
// any id sequence, encoded the way Add appends it and the way the bulk build
// writes it into an arena sized by uvarintLen, decodes back whole and by
// every prefix; and a document added with Add decodes to the interned
// textproc.Words of its text.
func FuzzDocTokens(f *testing.F) {
	f.Add(idsBytes(0, 1, 127, 128, 16383, 16384, 2097151, 2097152, 268435455, 268435456, math.MaxUint32), "the quick brown fox, the lazy dog")
	f.Add(idsBytes(math.MaxUint32, 127, math.MaxUint32, 128), "")
	f.Add(idsBytes(16384, 16383), "Ünïcode wörds — and 12,000 numbers; the end.")
	f.Fuzz(func(t *testing.T, raw []byte, text string) {
		ids := make([]uint32, len(raw)/4)
		for i := range ids {
			ids[i] = binary.LittleEndian.Uint32(raw[4*i:])
		}

		var appended []byte
		size := 0
		for _, id := range ids {
			appended = binary.AppendUvarint(appended, uint64(id))
			size += uvarintLen(id)
		}
		arena := make([]byte, size)
		off := 0
		for _, id := range ids {
			off += binary.PutUvarint(arena[off:], uint64(id))
		}
		if off != size || !slices.Equal(arena, appended) {
			t.Fatalf("uvarintLen sized %d bytes, PutUvarint wrote %d; AppendUvarint %x vs arena %x", size, off, appended, arena)
		}
		d := Doc{toks: arena, n: len(ids)}
		if got := d.AppendTokens([]uint32{7}); d.Len() != len(ids) || got[0] != 7 || !slices.Equal(got[1:], ids) {
			t.Fatalf("decoded %v (Len %d), want 7 then %v", got, d.Len(), ids)
		}
		for k := 0; k <= len(ids); k++ {
			if got := decodeUvarints(nil, arena, k); !slices.Equal(got, ids[:k]) {
				t.Fatalf("prefix %d decoded %v, want %v", k, got, ids[:k])
			}
		}

		e := NewEngine()
		e.Add("seed words before the fuzzed text", 0)
		id := e.Add(text, 3)
		e.Commit()
		doc, ok := e.Doc(id)
		words := textproc.Words(text)
		if !ok || doc.ID != id || doc.Topic != 3 || doc.Len() != len(words) {
			t.Fatalf("Doc(%d) = %+v, %v; want %d tokens, topic 3", id, doc, ok, len(words))
		}
		toks := doc.AppendTokens(nil)
		for i, w := range words {
			if got := e.Vocab().Token(toks[i]); got != w || e.Vocab().ID(w) != toks[i] {
				t.Fatalf("token %d = %q (id %d), want %q", i, got, toks[i], w)
			}
		}
	})
}
