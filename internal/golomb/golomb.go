// Package golomb implements Golomb coding (Witten, Moffat & Bell, "Managing
// Gigabytes" — the paper's reference [26]) with a bit-level writer/reader.
// The production framework (paper §VI) cites Golomb coding as the way to
// shrink the 400 MB of per-concept relevant-keyword packs; we use it to
// compress sorted term-ID lists via delta coding (EncodeSorted), and the
// search index and the click graph code their gap streams with it.
//
// Codec is the only code that writes or reads a Golomb value; Encode and
// EncodeSorted are loops over it. Decoding is always a Codec.Read against a
// BitReader the caller positions (BitReaderAt), so a stream can be entered
// at any recorded bit offset. The bit-at-a-time reference coder that Codec
// is checked against lives in the package's tests.
package golomb

import (
	"encoding/binary"
	"errors"
	"math"
	"math/bits"
)

// BitWriter accumulates bits most-significant-first.
type BitWriter struct {
	buf  []byte
	nbit uint8 // bits used in the last byte (0..7; 0 means last byte full/absent)
}

// AppendBitWriter returns a writer that appends to buf, for callers that
// pack many streams into one buffer: the first bit written starts a new
// byte after buf's contents, Bytes returns buf extended by the encoded
// bytes, and BitLen counts buf's bytes too, so the new stream's bit offsets
// are BitLen() − 8·len(buf).
func AppendBitWriter(buf []byte) BitWriter { return BitWriter{buf: buf} }

// WriteBit appends one bit (0 or 1).
func (w *BitWriter) WriteBit(b uint32) {
	if w.nbit == 0 {
		w.buf = append(w.buf, 0)
		w.nbit = 8
	}
	if b != 0 {
		w.buf[len(w.buf)-1] |= 1 << (w.nbit - 1)
	}
	w.nbit--
}

// WriteBits appends the low n bits of v, most significant first, a byte at
// a time rather than a bit at a time.
func (w *BitWriter) WriteBits(v uint64, n uint) {
	for n > 0 {
		if w.nbit == 0 {
			w.buf = append(w.buf, 0)
			w.nbit = 8
		}
		take := uint(w.nbit)
		if take > n {
			take = n
		}
		chunk := byte(v>>(n-take)) & (1<<take - 1)
		w.buf[len(w.buf)-1] |= chunk << (uint(w.nbit) - take)
		w.nbit -= uint8(take)
		n -= take
	}
}

// WriteUnary appends v as unary: v ones followed by a zero, emitted as
// packed bit runs.
func (w *BitWriter) WriteUnary(v uint32) {
	for v >= 32 {
		w.WriteBits(1<<32-1, 32)
		v -= 32
	}
	// v ones then the terminating zero, as one (v+1)-bit value.
	w.WriteBits(uint64(1)<<(v+1)-2, uint(v)+1)
}

// Bytes returns the encoded bytes (the final byte is zero-padded).
func (w *BitWriter) Bytes() []byte { return w.buf }

// BitLen returns the number of bits written.
func (w *BitWriter) BitLen() int {
	if len(w.buf) == 0 {
		return 0
	}
	return len(w.buf)*8 - int(w.nbit)
}

// BitReader consumes bits most-significant-first.
type BitReader struct {
	buf []byte
	pos int // bit position
}

// BitReaderAt returns, by value, a reader over data positioned at bit
// offset bitOffset ≥ 0 (0, or a BitWriter.BitLen() snapshot taken while
// encoding), for embedding in reused scratch: no heap allocation on the
// decode hot path.
func BitReaderAt(data []byte, bitOffset int) BitReader {
	return BitReader{buf: data, pos: bitOffset}
}

// BitPos returns the current bit position.
func (r *BitReader) BitPos() int { return r.pos }

// ErrOutOfBits is returned when a read runs past the end of the data.
var ErrOutOfBits = errors.New("golomb: out of bits")

// errUnaryTooLong reports a unary run long enough that the input must be
// corrupt. A package-level sentinel so the decode hot path never
// constructs an error value.
var errUnaryTooLong = errors.New("golomb: unary run too long (corrupt data)")

// ReadBit returns the next bit.
func (r *BitReader) ReadBit() (uint32, error) {
	byteIdx := r.pos >> 3
	if byteIdx >= len(r.buf) {
		return 0, ErrOutOfBits
	}
	bit := (r.buf[byteIdx] >> (7 - uint(r.pos&7))) & 1
	r.pos++
	return uint32(bit), nil
}

// ReadBits reads n bits as an unsigned integer. When a full 8-byte load
// fits, the bits come out of a single big-endian word (this is the decode
// hot path of the compressed positional index and the click graph);
// otherwise it falls back to byte-at-a-time consumption.
func (r *BitReader) ReadBits(n uint) (uint64, error) {
	if r.pos+int(n) > len(r.buf)*8 {
		return 0, ErrOutOfBits
	}
	if n == 0 {
		return 0, nil
	}
	byteIdx := r.pos >> 3
	if off := uint(r.pos & 7); off+n <= 64 && byteIdx+8 <= len(r.buf) {
		v := binary.BigEndian.Uint64(r.buf[byteIdx:]) << off >> (64 - n)
		r.pos += int(n)
		return v, nil
	}
	var v uint64
	for n > 0 {
		off := uint(r.pos & 7)
		avail := 8 - off
		take := avail
		if take > n {
			take = n
		}
		chunk := uint64(r.buf[r.pos>>3]>>(avail-take)) & (1<<take - 1)
		v = v<<take | chunk
		r.pos += int(take)
		n -= take
	}
	return v, nil
}

// ReadUnary reads a unary-coded value, counting run words (or, near the
// end of the buffer, run bytes) with leading-zeros rather than bit by bit.
func (r *BitReader) ReadUnary() (uint32, error) {
	var v uint32
	for {
		byteIdx := r.pos >> 3
		if byteIdx+8 <= len(r.buf) {
			// Invert and left-align 64 unread bits: leading zeros count the
			// run of ones; a nonzero word contains the terminator.
			w := ^binary.BigEndian.Uint64(r.buf[byteIdx:]) << (r.pos & 7)
			if w != 0 {
				n := uint32(bits.LeadingZeros64(w))
				r.pos += int(n) + 1
				return v + n, nil
			}
			v += uint32(64 - r.pos&7)
			r.pos = (byteIdx + 8) * 8
			if v > 1<<30 {
				return 0, errUnaryTooLong
			}
			continue
		}
		if byteIdx >= len(r.buf) {
			return 0, ErrOutOfBits
		}
		// Invert and left-align the unread bits: leading zeros of the
		// result count the leading ones of the run. Shift padding is zero,
		// so a nonzero value means the terminating 0-bit is in this byte.
		b := ^r.buf[byteIdx] << (r.pos & 7)
		if b != 0 {
			n := uint32(bits.LeadingZeros8(b))
			r.pos += int(n) + 1 // run bits plus the terminator
			return v + n, nil
		}
		v += uint32(8 - r.pos&7)
		r.pos = (byteIdx + 1) * 8
		if v > 1<<30 {
			return 0, errUnaryTooLong
		}
	}
}

// OptimalM returns the Golomb parameter for geometrically-distributed values
// with the given mean: M ≈ ⌈0.69·mean⌉, minimum 1.
func OptimalM(mean float64) uint32 {
	m := uint32(math.Ceil(0.69 * mean))
	if m < 1 {
		m = 1
	}
	return m
}

// bitlen returns ⌈log2(m)⌉ for m ≥ 2.
func bitlen(m uint32) int {
	n := 0
	for v := m - 1; v > 0; v >>= 1 {
		n++
	}
	if n == 0 {
		n = 1
	}
	return n
}

// Codec is the package's one Golomb value coder: it caches the derived
// constants of one parameter and writes or reads values against a
// caller-owned BitWriter/BitReader. One Codec per stream serves a
// homogeneous stream (a frozen posting list's doc gaps, frequencies or
// positions) and interleaved ones alike, where several parameters alternate
// over the same bit sequence (the click graph's neighbor-gap/weight
// interleave). The zero value behaves as M=1.
type Codec struct {
	m      uint32
	b      uint   // ⌈log2(m)⌉, 0 when m <= 1
	cutoff uint32 // 1<<b − m, the truncated-binary threshold
}

// NewCodec returns a Codec for parameter m (m < 1 is clamped to 1).
func NewCodec(m uint32) Codec {
	if m < 1 {
		m = 1
	}
	c := Codec{m: m}
	if m > 1 {
		c.b = uint(bitlen(m))
		c.cutoff = uint32(1<<c.b) - m
	}
	return c
}

// M returns the codec's parameter.
func (c Codec) M() uint32 {
	if c.m < 1 {
		return 1
	}
	return c.m
}

// Write encodes one value to w: the quotient in unary, the remainder in
// truncated binary. The common case — quotient, terminator and remainder
// fitting 64 bits — goes out as a single WriteBits call.
func (c Codec) Write(w *BitWriter, v uint32) {
	m := c.M()
	q := v / m
	rem := v % m
	nRem := c.b // remainder width; adjusted below for the truncated range
	if m > 1 && rem < c.cutoff {
		nRem--
	} else if m > 1 {
		rem += c.cutoff
	} else {
		nRem = 0
		rem = 0
	}
	if total := uint(q) + 1 + nRem; total <= 64 {
		// q ones, a zero, then the remainder bits.
		bits := (uint64(1)<<q - 1) << (nRem + 1)
		w.WriteBits(bits|uint64(rem), total)
		return
	}
	w.WriteUnary(q)
	w.WriteBits(uint64(rem), nRem)
}

// Read decodes one value from r. When 8 bytes can be loaded at the cursor
// and the whole value fits the loaded window, the unary quotient and the
// truncated-binary remainder come out of a single big-endian word — the
// interleaved-stream decode hot path of the click graph.
func (c Codec) Read(r *BitReader) (uint32, error) {
	if byteIdx := r.pos >> 3; byteIdx+8 <= len(r.buf) {
		off := uint(r.pos & 7)
		w := binary.BigEndian.Uint64(r.buf[byteIdx:]) << off
		q := uint(bits.LeadingZeros64(^w))
		if q+1+c.b <= 64-off {
			if c.m <= 1 {
				r.pos += int(q) + 1
				return uint32(q), nil
			}
			w <<= q + 1
			var rem uint32
			if c.b > 1 {
				rem = uint32(w >> (64 - (c.b - 1)))
			}
			nBits := q + c.b // q + 1 + (b−1)
			if rem >= c.cutoff {
				rem = uint32(w>>(64-c.b)) - c.cutoff
				nBits++
			}
			r.pos += int(nBits)
			return uint32(q)*c.m + rem, nil
		}
	}
	q, err := r.ReadUnary()
	if err != nil {
		return 0, err
	}
	if c.m <= 1 {
		return q, nil
	}
	rem, err := r.ReadBits(c.b - 1)
	if err != nil {
		return 0, err
	}
	if uint32(rem) >= c.cutoff {
		extra, err := r.ReadBit()
		if err != nil {
			return 0, err
		}
		rem = (rem<<1 | uint64(extra)) - uint64(c.cutoff)
	}
	return q*c.m + uint32(rem), nil
}

// Cost returns the exact number of bits Write would emit for v — the size
// estimator the click graph's per-row bitmap/Golomb representation choice
// runs before committing bits to a stream.
func (c Codec) Cost(v uint32) int {
	m := c.M()
	q := int(v/m) + 1 // unary quotient plus terminator
	if m == 1 {
		return q
	}
	if v%m < c.cutoff {
		return q + int(c.b) - 1
	}
	return q + int(c.b)
}

// EncodeSorted delta-codes a strictly-increasing sequence then Golomb-codes
// the gaps (gap−1, since gaps are ≥1) with a parameter derived from the mean
// gap. The chosen m is returned for decoding.
func EncodeSorted(values []uint32) (data []byte, m uint32) {
	if len(values) == 0 {
		return nil, 1
	}
	m = OptimalM(float64(values[len(values)-1]) / float64(len(values)))
	c := NewCodec(m)
	var w BitWriter
	for i, v := range values {
		if i == 0 {
			c.Write(&w, v)
		} else {
			c.Write(&w, v-values[i-1]-1)
		}
	}
	return w.Bytes(), m
}
