package framework

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"contextrank/internal/golomb"
)

// Robustness (failure-injection) tests: the production loaders must reject
// — never panic on or hang over — arbitrary corruption of their inputs.

func TestBundleLoadNeverPanicsOnRandomFlips(t *testing.T) {
	b := sampleBundle(t)
	var buf bytes.Buffer
	if err := b.Save(&buf); err != nil {
		t.Fatal(err)
	}
	clean := buf.Bytes()
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		data := make([]byte, len(clean))
		copy(data, clean)
		// 1-4 random byte flips anywhere in the file.
		for f := 0; f < 1+rng.Intn(4); f++ {
			data[rng.Intn(len(data))] ^= byte(1 + rng.Intn(255))
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("trial %d: LoadBundle panicked: %v", trial, r)
				}
			}()
			loaded, err := LoadBundle(bytes.NewReader(data))
			// Either the checksum/structure catches it, or (when the flips
			// cancel — astronomically unlikely) the load succeeds; both are
			// acceptable, but success with err==nil must return a usable
			// bundle.
			if err == nil && loaded.Interest == nil {
				t.Fatalf("trial %d: nil bundle without error", trial)
			}
		}()
	}
}

func TestBundleLoadNeverPanicsOnRandomBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 300; trial++ {
		data := make([]byte, rng.Intn(4096))
		rng.Read(data)
		// Prefixing the magic exercises the deeper decode paths.
		if trial%2 == 0 && len(data) >= 8 {
			copy(data, bundleMagic[:])
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("trial %d: panicked: %v", trial, r)
				}
			}()
			_, _ = LoadBundle(bytes.NewReader(data))
		}()
	}
}

// FuzzLoadBundle: every input either fails to load or loads a bundle that
// survives Save → LoadBundle unchanged, and no input panics. The seeds are a
// real bundle, its truncations, the bare 108-byte header claiming a
// 256 MiB model, and a resealed bundle with a repeated TID in one pack.
func FuzzLoadBundle(f *testing.F) {
	clean := saveBytes(f, sampleBundle(f))
	f.Add(clean)
	for _, n := range []int{0, 8, 50, 108, len(clean) / 2, len(clean) - 5, len(clean) - 1} {
		f.Add(clean[:n])
	}
	f.Add(headerOnly(1 << 28))
	f.Add(editedPack(f, repeatFirstEntry))
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := LoadBundle(bytes.NewReader(data))
		if err != nil {
			return
		}
		saved := saveBytes(t, b)
		again, err := LoadBundle(bytes.NewReader(saved))
		if err != nil {
			t.Fatalf("a loaded bundle's own bytes do not load: %v", err)
		}
		if !bytes.Equal(saveBytes(t, again), saved) {
			t.Fatal("Save → LoadBundle changed the bundle")
		}
	})
}

// decompress reverses KeywordPacks.Compress: the test oracle that pins the
// compressed form to the raw pack, decoding the TID gaps with golomb.Codec.
func decompress(p CompressedPack) ([]uint32, error) {
	c := golomb.NewCodec(p.M)
	tr := golomb.BitReaderAt(p.TIDData, 0)
	sr := golomb.BitReaderAt(p.ScoreBit, 0)
	out := make([]uint32, p.N)
	tid := ^uint32(0)
	for i := range out {
		g, err := c.Read(&tr)
		if err != nil {
			return nil, fmt.Errorf("framework: decompress pack: %w", err)
		}
		tid += g + 1
		q, err := sr.ReadBits(ScoreBits)
		if err != nil {
			return nil, fmt.Errorf("framework: decompress scores: %w", err)
		}
		out[i] = packEntry(tid, uint32(q))
	}
	return out, nil
}

func TestGolombDecodeNeverPanicsOnRandomBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 500; trial++ {
		data := make([]byte, rng.Intn(256))
		rng.Read(data)
		p := CompressedPack{N: rng.Intn(50), M: uint32(1 + rng.Intn(64)), TIDData: data, ScoreBit: data}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("trial %d: golomb decode panicked: %v", trial, r)
				}
			}()
			_, _ = decompress(p)
		}()
	}
}

func TestCompressedPackDecompressCorrupt(t *testing.T) {
	kp := BuildKeywordPacks(buildStore())
	cp := kp.Compress("iraq war")
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 200; trial++ {
		bad := cp
		bad.TIDData = append([]byte(nil), cp.TIDData...)
		if len(bad.TIDData) > 0 {
			bad.TIDData[rng.Intn(len(bad.TIDData))] ^= byte(1 + rng.Intn(255))
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("trial %d: Decompress panicked: %v", trial, r)
				}
			}()
			_, _ = decompress(bad)
		}()
	}
}
