package golomb

// The bit-at-a-time reference coder: the textbook Golomb code, one WriteBit
// or ReadBit per coded bit, with none of Codec's word-at-a-time paths. It is
// the oracle Codec is compared against, bit for bit on write and value for
// value (and failure for failure) on read.

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
)

// refWrite appends v with parameter m (m < 1 means 1): the quotient as q
// one-bits and a zero, then the remainder in truncated binary — b−1 bits
// below the cutoff 2^b − m, b bits of rem+cutoff above it.
func refWrite(w *BitWriter, v, m uint32) {
	if m < 1 {
		m = 1
	}
	for q := v / m; q > 0; q-- {
		w.WriteBit(1)
	}
	w.WriteBit(0)
	if m == 1 {
		return
	}
	b := bitlen(m)
	cutoff := uint32(1<<b) - m
	rem, width := v%m, b-1
	if rem >= cutoff {
		rem, width = rem+cutoff, b
	}
	for i := width - 1; i >= 0; i-- {
		w.WriteBit(rem >> i & 1)
	}
}

// refRead reads one value with parameter m, a bit at a time.
func refRead(r *BitReader, m uint32) (uint32, error) {
	if m < 1 {
		m = 1
	}
	var q uint32
	for {
		bit, err := r.ReadBit()
		if err != nil {
			return 0, err
		}
		if bit == 0 {
			break
		}
		q++
	}
	if m == 1 {
		return q, nil
	}
	b := bitlen(m)
	cutoff := uint32(1<<b) - m
	var rem uint32
	for i := 0; i < b-1; i++ {
		bit, err := r.ReadBit()
		if err != nil {
			return 0, err
		}
		rem = rem<<1 | bit
	}
	if rem >= cutoff {
		bit, err := r.ReadBit()
		if err != nil {
			return 0, err
		}
		rem = rem<<1 | bit - cutoff
	}
	return q*m + rem, nil
}

// encode writes values with parameter m through Codec.Write.
func encode(values []uint32, m uint32) []byte {
	c := NewCodec(m)
	var w BitWriter
	for _, v := range values {
		c.Write(&w, v)
	}
	return w.Bytes()
}

// decode reads n values with parameter m through the reference coder.
func decode(data []byte, n int, m uint32) ([]uint32, error) {
	r := BitReaderAt(data, 0)
	out := make([]uint32, n)
	for i := range out {
		v, err := refRead(&r, m)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// decodeSorted reverses EncodeSorted through the reference coder.
func decodeSorted(data []byte, n int, m uint32) ([]uint32, error) {
	out, err := decode(data, n, m)
	if err != nil {
		return nil, err
	}
	for i := 1; i < n; i++ {
		out[i] += out[i-1] + 1
	}
	return out, nil
}

// TestCodecMatchesReference: Codec.Write emits exactly the reference bits
// and Codec.Read recovers every reference-coded value, across parameters
// from pure unary to 2^31+1, values past the 64-bit single-word limit, and
// random leading padding so every bit alignment is crossed.
func TestCodecMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ms := []uint32{0, 1, 2, 3, 5, 7, 8, 9, 64, 100, 1000, 1 << 20, 1<<31 + 1}
	for trial := 0; trial < 400; trial++ {
		m := ms[trial%len(ms)]
		if trial >= len(ms) && rng.Intn(2) == 0 {
			m = uint32(1 + rng.Intn(5000))
		}
		c := NewCodec(m)
		pad := uint(rng.Intn(8))
		var got, want BitWriter
		got.WriteBits(0, pad)
		want.WriteBits(0, pad)
		values := make([]uint32, 1+rng.Intn(60))
		for i := range values {
			switch rng.Intn(4) {
			case 0:
				values[i] = uint32(rng.Intn(4))
			case 1: // quotients long enough to leave the single-word path
				values[i] = c.M() * uint32(60+rng.Intn(100))
			default:
				values[i] = uint32(rng.Intn(1 << 16))
			}
			c.Write(&got, values[i])
			refWrite(&want, values[i], m)
		}
		if got.BitLen() != want.BitLen() || !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("trial %d m=%d: Codec.Write differs from the reference coder", trial, m)
		}
		r := BitReaderAt(want.Bytes(), int(pad))
		for i, v := range values {
			if g, err := c.Read(&r); err != nil || g != v {
				t.Fatalf("trial %d m=%d value %d: Codec.Read = %d, %v; want %d", trial, m, i, g, err, v)
			}
		}
	}
}

// FuzzCodecRead: on arbitrary bytes, any parameter and any starting bit
// offset, a sequence of Codec.Read calls returns the reference decoder's
// values and fails at the same call with the same error — and never panics.
func FuzzCodecRead(f *testing.F) {
	for _, m := range []uint32{1, 3, 37, 1 << 20} {
		var w BitWriter
		c := NewCodec(m)
		for v := uint32(0); v < 40; v++ {
			c.Write(&w, v*v)
		}
		f.Add(w.Bytes(), m, uint(0))
		f.Add(w.Bytes(), m, uint(3))
	}
	f.Add([]byte{}, uint32(5), uint(0))
	f.Add(bytes.Repeat([]byte{0xFF}, 20), uint32(2), uint(1))
	f.Add([]byte{0x00, 0x80, 0xFF, 0x01, 0x7F, 0xAA, 0x55, 0xC3, 0x3C, 0x0F}, uint32(1<<31+1), uint(7))
	f.Fuzz(func(t *testing.T, data []byte, m uint32, offset uint) {
		bitOffset := int(offset % uint(8*len(data)+9))
		c := NewCodec(m)
		got := BitReaderAt(data, bitOffset)
		want := BitReaderAt(data, bitOffset)
		for call := 0; ; call++ {
			gv, gerr := c.Read(&got)
			wv, werr := refRead(&want, m)
			if !errors.Is(gerr, werr) || (gerr == nil && gv != wv) {
				t.Fatalf("call %d (m=%d, offset %d): Codec.Read = %d, %v; reference %d, %v", call, m, bitOffset, gv, gerr, wv, werr)
			}
			if gerr != nil {
				return
			}
			if got.BitPos() != want.BitPos() {
				t.Fatalf("call %d: Codec.Read consumed to bit %d, reference to %d", call, got.BitPos(), want.BitPos())
			}
		}
	})
}
