package searchsim

import (
	"math/bits"
	"slices"
)

// The forward index: each document's interned token ids, stored as uvarints
// (1 byte below 128, 2 below 16,384, 3 below 2,097,152; a paper-scale
// corpus averages 1.87 bytes a token, not 4) in exact-size byte arenas shared
// by the documents built or sealed together. The bulk build writes one arena
// for every base document; each seal copies the memtable's pending buffer
// into one more. Arenas are immutable once their documents are visible, so
// readers decode them without synchronization.

// docRec is the engine's per-document record: the token ids as uvarints in
// a slice of their arena, and the topic. The token counts live apart, one
// int32 a document in the engine's and view's lens, because top-k ranking
// reads the length of every candidate its driver proposes, before anything
// else of it: a dense column keeps that read to 4 bytes of a 16-per-line
// array instead of a 32-byte record.
type docRec struct {
	toks  []byte
	topic int32
}

// uvarintLen is the encoded size of x.
func uvarintLen(x uint32) int { return (bits.Len32(x|1) + 6) / 7 }

// decodeUvarints appends the first n ids coded in b to dst. b holds at
// least n well-formed uvarints: the engine's own encoding.
func decodeUvarints(dst []uint32, b []byte, n int) []uint32 {
	dst = slices.Grow(dst, n)
	var x uint32
	var s uint
	for i := 0; n > 0; i++ {
		c := b[i]
		if c < 0x80 {
			dst = append(dst, x|uint32(c)<<s)
			x, s = 0, 0
			n--
			continue
		}
		x |= uint32(c&0x7f) << s
		s += 7
	}
	return dst
}
