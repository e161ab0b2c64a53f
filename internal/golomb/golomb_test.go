package golomb

import (
	"bytes"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func TestBitWriterReaderRoundtrip(t *testing.T) {
	var w BitWriter
	w.WriteBits(0b1011, 4)
	w.WriteUnary(3)
	w.WriteBit(1)
	r := BitReaderAt(w.Bytes(), 0)
	if v, _ := r.ReadBits(4); v != 0b1011 {
		t.Fatalf("ReadBits = %b", v)
	}
	if v, _ := r.ReadUnary(); v != 3 {
		t.Fatalf("ReadUnary = %d", v)
	}
	if v, _ := r.ReadBit(); v != 1 {
		t.Fatalf("ReadBit = %d", v)
	}
}

func TestBitLen(t *testing.T) {
	var w BitWriter
	if w.BitLen() != 0 {
		t.Fatal("empty BitLen")
	}
	w.WriteBits(0b111, 3)
	if w.BitLen() != 3 {
		t.Fatalf("BitLen = %d", w.BitLen())
	}
	w.WriteBits(0, 13)
	if w.BitLen() != 16 {
		t.Fatalf("BitLen = %d", w.BitLen())
	}
}

// TestAppendBitWriter: streams written back to back through AppendBitWriter
// are the bytes a fresh writer emits for each, each starting on a new byte
// at bit 8·len(buf), and decode from there.
func TestAppendBitWriter(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var buf, want []byte
	var starts []int
	for s := 0; s < 20; s++ {
		vals := make([]uint32, rng.Intn(40))
		for i := range vals {
			vals[i] = uint32(rng.Intn(300))
		}
		c := NewCodec(uint32(1 + rng.Intn(50)))
		w := AppendBitWriter(buf)
		if w.BitLen() != 8*len(buf) {
			t.Fatalf("stream %d: BitLen %d on a %d-byte buffer", s, w.BitLen(), len(buf))
		}
		starts = append(starts, w.BitLen())
		var fresh BitWriter
		for _, v := range vals {
			c.Write(&w, v)
			c.Write(&fresh, v)
		}
		buf = w.Bytes()
		want = append(want, fresh.Bytes()...)
		r := BitReaderAt(buf, starts[s])
		for i, v := range vals {
			if got, err := c.Read(&r); err != nil || got != v {
				t.Fatalf("stream %d value %d: got %d, %v; want %d", s, i, got, err, v)
			}
		}
	}
	if !bytes.Equal(buf, want) {
		t.Fatal("appended streams differ from the concatenation of separately written streams")
	}
}

func TestReadPastEnd(t *testing.T) {
	r := BitReaderAt([]byte{0xFF}, 0)
	if _, err := r.ReadBits(9); err != ErrOutOfBits {
		t.Fatalf("expected ErrOutOfBits, got %v", err)
	}
}

func TestEncodeDecodeRoundtrip(t *testing.T) {
	for _, m := range []uint32{1, 2, 3, 4, 5, 7, 8, 10, 64, 100} {
		values := []uint32{0, 1, 2, 3, 5, 10, 63, 64, 65, 100, 1000, 1 << 20}
		data := encode(values, m)
		got, err := decode(data, len(values), m)
		if err != nil {
			t.Fatalf("m=%d: %v", m, err)
		}
		if !reflect.DeepEqual(got, values) {
			t.Fatalf("m=%d: roundtrip %v != %v", m, got, values)
		}
	}
}

func TestEncodeDecodeRandomProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func(seed int64, mRaw uint32) bool {
		r := rand.New(rand.NewSource(seed))
		m := mRaw%200 + 1
		n := r.Intn(50)
		values := make([]uint32, n)
		for i := range values {
			values[i] = uint32(r.Intn(100000))
		}
		data := encode(values, m)
		got, err := decode(data, n, m)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(got, values)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

func TestEncodeSortedRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	seen := map[uint32]bool{}
	var values []uint32
	for len(values) < 300 {
		v := uint32(rng.Intn(1 << 22))
		if !seen[v] {
			seen[v] = true
			values = append(values, v)
		}
	}
	sort.Slice(values, func(i, j int) bool { return values[i] < values[j] })
	data, m := EncodeSorted(values)
	got, err := decodeSorted(data, len(values), m)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, values) {
		t.Fatal("sorted roundtrip failed")
	}
}

func TestEncodeSortedCompresses(t *testing.T) {
	// Dense sorted IDs compress far below 4 bytes each.
	values := make([]uint32, 1000)
	for i := range values {
		values[i] = uint32(i * 7)
	}
	data, _ := EncodeSorted(values)
	if len(data) >= 4*len(values)/2 {
		t.Fatalf("Golomb coding did not compress: %d bytes for %d values", len(data), len(values))
	}
}

func TestEncodeSortedEmpty(t *testing.T) {
	data, m := EncodeSorted(nil)
	if data != nil {
		t.Fatal("empty encode should be nil")
	}
	got, err := decodeSorted(data, 0, m)
	if err != nil || len(got) != 0 {
		t.Fatalf("empty decode = %v, %v", got, err)
	}
}

func TestOptimalM(t *testing.T) {
	if OptimalM(0) != 1 {
		t.Fatal("OptimalM floor")
	}
	if OptimalM(100) < OptimalM(10) {
		t.Fatal("OptimalM must grow with mean")
	}
}

func TestDecodeCorrupt(t *testing.T) {
	// All-ones data: unary run exceeds data length.
	r := BitReaderAt([]byte{0xFF, 0xFF}, 0)
	if _, err := NewCodec(3).Read(&r); err == nil {
		t.Fatal("expected error on truncated unary")
	}
}

func BenchmarkEncodeSorted(b *testing.B) {
	values := make([]uint32, 100)
	for i := range values {
		values[i] = uint32(i * 37)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		EncodeSorted(values)
	}
}

// BenchmarkDecodeSorted decodes an EncodeSorted list through Codec.Read,
// the one decoder.
func BenchmarkDecodeSorted(b *testing.B) {
	values := make([]uint32, 100)
	for i := range values {
		values[i] = uint32(i * 37)
	}
	data, m := EncodeSorted(values)
	c := NewCodec(m)
	out := make([]uint32, len(values))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := BitReaderAt(data, 0)
		prev := ^uint32(0)
		for j := range out {
			g, err := c.Read(&r)
			if err != nil {
				b.Fatal(err)
			}
			prev += g + 1
			out[j] = prev
		}
	}
}
