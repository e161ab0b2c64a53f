package framework

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"contextrank/internal/ranksvm"
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
// real bundle, its truncations, the bare 104-byte header claiming a model
// 2^28 wide, one-concept bundles whose pack claims 2^20 entries over 3
// bytes or a TID past its table, and bundles whose model has a NaN weight
// or a zero scale.
func FuzzLoadBundle(f *testing.F) {
	clean := saveBytes(f, sampleBundle(f))
	f.Add(clean)
	for _, n := range []int{0, 8, 50, 104, len(clean) / 2, len(clean) - 5, len(clean) - 1} {
		f.Add(clean[:n])
	}
	f.Add(headerOnly(1 << 28))
	f.Add(oneConcept(f, 3, claimsMillion))
	f.Add(oneConcept(f, 3, encodedPack(0, 7, 3, 9)))
	f.Add(withModel(f, func(m *ranksvm.Model) { m.Weights[0] = math.NaN() }))
	f.Add(withModel(f, func(m *ranksvm.Model) { m.Scale[0] = 0 }))
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

// The pack decoder on arbitrary bytes: it fails or returns a pack, never
// panics.
func TestGolombDecodeNeverPanicsOnRandomBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 500; trial++ {
		data := make([]byte, rng.Intn(256))
		rng.Read(data)
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("trial %d: golomb decode panicked: %v", trial, r)
				}
			}()
			d := &decoder{buf: data}
			d.pack(uint32(rng.Intn(1 << TIDBits)))
		}()
	}
}

// A real pack's bytes with one flipped: decoding fails or returns a pack,
// never panics.
func TestPackDecodeCorrupt(t *testing.T) {
	kp := BuildKeywordPacks(buildStore())
	clean, _ := appendPack(nil, kp.pack("iraq war"))
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 200; trial++ {
		bad := bytes.Clone(clean)
		bad[rng.Intn(len(bad))] ^= byte(1 + rng.Intn(255))
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("trial %d: pack decode panicked: %v", trial, r)
				}
			}()
			d := &decoder{buf: bad}
			d.pack(uint32(kp.TIDs.Len()))
		}()
	}
}
