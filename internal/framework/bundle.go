package framework

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"sort"

	"contextrank/internal/match"
	"contextrank/internal/ranksvm"
)

// This file implements bundle persistence: the paper's offline pipeline
// produces "data-packs that are pre-loaded into memory to allow for
// high-performance entity detection" — the production runtime must start
// from a serialized artifact, not by re-mining the web. A Bundle is the
// interestingness table + keyword packs + trained model, written in a
// length-prefixed little-endian binary format with a magic header, version
// byte and trailing CRC32 so corrupt or truncated files fail loudly.

// Bundle is the complete offline artifact behind one runtime.
type Bundle struct {
	Interest *InterestTable
	Packs    *KeywordPacks
	Model    *ranksvm.Model
}

var bundleMagic = [8]byte{'C', 'T', 'X', 'R', 'A', 'N', 'K', 1}

// ErrCorrupt is returned when a bundle fails validation.
var ErrCorrupt = errors.New("framework: corrupt bundle")

// crcWriter hashes everything written through it.
type crcWriter struct {
	w   io.Writer
	crc uint32
}

func (c *crcWriter) Write(p []byte) (int, error) {
	c.crc = crc32.Update(c.crc, crc32.IEEETable, p)
	return c.w.Write(p)
}

type crcReader struct {
	r   io.Reader
	crc uint32
}

func (c *crcReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.crc = crc32.Update(c.crc, crc32.IEEETable, p[:n])
	return n, err
}

func writeU32(w io.Writer, v uint32) error { return binary.Write(w, binary.LittleEndian, v) }
func writeU64(w io.Writer, v uint64) error { return binary.Write(w, binary.LittleEndian, v) }
func writeF64(w io.Writer, v float64) error {
	return writeU64(w, math.Float64bits(v))
}
func writeString(w io.Writer, s string) error {
	if err := writeU32(w, uint32(len(s))); err != nil {
		return err
	}
	_, err := io.WriteString(w, s)
	return err
}

func readU32(r io.Reader) (uint32, error) {
	var v uint32
	err := binary.Read(r, binary.LittleEndian, &v)
	return v, err
}
func readU64(r io.Reader) (uint64, error) {
	var v uint64
	err := binary.Read(r, binary.LittleEndian, &v)
	return v, err
}
func readF64(r io.Reader) (float64, error) {
	v, err := readU64(r)
	return math.Float64frombits(v), err
}

// readBlock reads an n-byte payload whose length came from the input.
// Blocks up to blockChunk are read into an exact buffer; a longer one grows
// with the bytes actually present, never with what a corrupt length prefix
// claims, so a short input fails before it costs memory.
func readBlock(r io.Reader, n uint64) ([]byte, error) {
	if n <= blockChunk {
		buf := make([]byte, n)
		_, err := io.ReadFull(r, buf)
		return buf, err
	}
	buf, err := io.ReadAll(io.LimitReader(r, int64(n)))
	if err == nil && uint64(len(buf)) != n {
		err = io.ErrUnexpectedEOF
	}
	return buf, err
}

// blockChunk bounds what readBlock allocates ahead of the bytes it reads.
const blockChunk = 64 << 10

func readString(r io.Reader) (string, error) {
	n, err := readU32(r)
	if err != nil {
		return "", err
	}
	buf, err := readBlock(r, uint64(n))
	return string(buf), err
}

// Save writes the bundle.
func (b *Bundle) Save(w io.Writer) error {
	bw := bufio.NewWriter(w)
	cw := &crcWriter{w: bw}
	if _, err := cw.Write(bundleMagic[:]); err != nil {
		return err
	}
	if err := b.saveInterest(cw); err != nil {
		return err
	}
	if err := b.savePacks(cw); err != nil {
		return err
	}
	// The model is stored as a length-prefixed JSON blob: a streaming JSON
	// decoder reads past the value it decodes, which would corrupt the
	// framing of anything following it.
	var modelBuf bytes.Buffer
	if err := b.Model.Save(&modelBuf); err != nil {
		return err
	}
	if err := writeU32(cw, uint32(modelBuf.Len())); err != nil {
		return err
	}
	if _, err := cw.Write(modelBuf.Bytes()); err != nil {
		return err
	}
	// Trailing CRC of everything before it (written raw, not hashed).
	if err := binary.Write(bw, binary.LittleEndian, cw.crc); err != nil {
		return err
	}
	return bw.Flush()
}

func (b *Bundle) saveInterest(w io.Writer) error {
	t := b.Interest
	for _, m := range t.calib.Max {
		if err := writeF64(w, m); err != nil {
			return err
		}
	}
	if err := writeU32(w, uint32(len(t.index))); err != nil {
		return err
	}
	// Names in offset order for deterministic output.
	names := make([]string, len(t.index))
	for name, off := range t.index {
		names[off/NumFields] = name
	}
	for _, name := range names {
		if err := writeString(w, name); err != nil {
			return err
		}
	}
	if err := writeU32(w, uint32(len(t.data))); err != nil {
		return err
	}
	buf := make([]byte, 2*len(t.data))
	for i, v := range t.data {
		binary.LittleEndian.PutUint16(buf[2*i:], v)
	}
	_, err := w.Write(buf)
	return err
}

func (b *Bundle) savePacks(w io.Writer) error {
	kp := b.Packs
	if err := writeF64(w, kp.maxScore); err != nil {
		return err
	}
	if err := writeU32(w, uint32(kp.TIDs.Len())); err != nil {
		return err
	}
	for i := 0; i < kp.TIDs.Len(); i++ {
		if err := writeString(w, kp.TIDs.Token(uint32(i))); err != nil {
			return err
		}
	}
	names := make([]string, 0, len(kp.packs))
	for n := range kp.packs {
		names = append(names, n)
	}
	sort.Strings(names)
	if err := writeU32(w, uint32(len(names))); err != nil {
		return err
	}
	for _, n := range names {
		if err := writeString(w, n); err != nil {
			return err
		}
		pack := kp.packs[n]
		if err := writeU32(w, uint32(len(pack))); err != nil {
			return err
		}
		buf := make([]byte, 4*len(pack))
		for i, e := range pack {
			binary.LittleEndian.PutUint32(buf[4*i:], e)
		}
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}

// LoadBundle reads and validates a bundle written by Save.
func LoadBundle(r io.Reader) (*Bundle, error) {
	br := bufio.NewReader(r)
	cr := &crcReader{r: br}
	var magic [8]byte
	if _, err := io.ReadFull(cr, magic[:]); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if magic != bundleMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	b := &Bundle{}
	var err error
	if b.Interest, err = loadInterest(cr); err != nil {
		return nil, err
	}
	if b.Packs, err = loadPacks(cr); err != nil {
		return nil, err
	}
	// Both tables are keyed by concept name: a concept with interest but no
	// pack would be served with relevance 0, one with a pack but no interest
	// row never.
	if n, m := b.Interest.Len(), b.Packs.Len(); n != m {
		return nil, fmt.Errorf("%w: %d interest rows, %d keyword packs", ErrCorrupt, n, m)
	}
	for name := range b.Packs.packs {
		if _, ok := b.Interest.index[name]; !ok {
			return nil, fmt.Errorf("%w: keyword pack %q has no interest row", ErrCorrupt, name)
		}
	}
	modelLen, err := readU32(cr)
	if err != nil {
		return nil, fmt.Errorf("%w: model length", ErrCorrupt)
	}
	modelBytes, err := readBlock(cr, uint64(modelLen))
	if err != nil {
		return nil, fmt.Errorf("%w: model data: %v", ErrCorrupt, err)
	}
	if b.Model, err = ranksvm.Load(bytes.NewReader(modelBytes)); err != nil {
		return nil, fmt.Errorf("%w: model: %v", ErrCorrupt, err)
	}
	// A model fitted to another layout would index past its weights on the
	// first ranked concept, or score with the wrong ones.
	if d := len(b.Model.Mean); d != modelDim {
		return nil, fmt.Errorf("%w: model has %d features, the runtime's layout %d", ErrCorrupt, d, modelDim)
	}
	want := cr.crc
	var got uint32
	if err := binary.Read(br, binary.LittleEndian, &got); err != nil {
		return nil, fmt.Errorf("%w: missing checksum", ErrCorrupt)
	}
	if got != want {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	return b, nil
}

func loadInterest(r io.Reader) (*InterestTable, error) {
	t := &InterestTable{index: make(map[string]int)}
	for i := range t.calib.Max {
		v, err := readF64(r)
		if err != nil {
			return nil, fmt.Errorf("%w: calibration", ErrCorrupt)
		}
		t.calib.Max[i] = v
	}
	n, err := readU32(r)
	if err != nil || n > 1<<26 {
		return nil, fmt.Errorf("%w: interest count", ErrCorrupt)
	}
	for i := uint32(0); i < n; i++ {
		name, err := readString(r)
		if err != nil {
			return nil, fmt.Errorf("%w: interest name: %v", ErrCorrupt, err)
		}
		if _, dup := t.index[name]; dup {
			return nil, fmt.Errorf("%w: duplicate interest name %q", ErrCorrupt, name)
		}
		t.index[name] = int(i) * NumFields
	}
	dlen, err := readU32(r)
	if err != nil || dlen != n*NumFields {
		return nil, fmt.Errorf("%w: interest data length", ErrCorrupt)
	}
	buf, err := readBlock(r, 2*uint64(dlen))
	if err != nil {
		return nil, fmt.Errorf("%w: interest data: %v", ErrCorrupt, err)
	}
	t.data = make([]uint16, dlen)
	for i := range t.data {
		t.data[i] = binary.LittleEndian.Uint16(buf[2*i:])
	}
	return t, nil
}

func loadPacks(r io.Reader) (*KeywordPacks, error) {
	kp := &KeywordPacks{TIDs: match.NewVocab(), packs: make(map[string][]uint32)}
	var err error
	if kp.maxScore, err = readF64(r); err != nil {
		return nil, fmt.Errorf("%w: pack scale", ErrCorrupt)
	}
	nTerms, err := readU32(r)
	if err != nil || nTerms > MaxTID {
		return nil, fmt.Errorf("%w: TID count", ErrCorrupt)
	}
	for i := uint32(0); i < nTerms; i++ {
		term, err := readString(r)
		if err != nil {
			return nil, fmt.Errorf("%w: TID term: %v", ErrCorrupt, err)
		}
		if got := kp.TIDs.Intern(term); got != i {
			return nil, fmt.Errorf("%w: duplicate TID term %q", ErrCorrupt, term)
		}
	}
	nPacks, err := readU32(r)
	if err != nil || nPacks > 1<<26 {
		return nil, fmt.Errorf("%w: pack count", ErrCorrupt)
	}
	for i := uint32(0); i < nPacks; i++ {
		name, err := readString(r)
		if err != nil {
			return nil, fmt.Errorf("%w: pack name: %v", ErrCorrupt, err)
		}
		if _, dup := kp.packs[name]; dup {
			return nil, fmt.Errorf("%w: duplicate pack name %q", ErrCorrupt, name)
		}
		// A pack's TIDs ascend strictly below nTerms: a repeat would score twice.
		plen, err := readU32(r)
		if err != nil || plen > 1<<20 || plen > nTerms {
			return nil, fmt.Errorf("%w: pack length", ErrCorrupt)
		}
		buf, err := readBlock(r, 4*uint64(plen))
		if err != nil {
			return nil, fmt.Errorf("%w: pack data: %v", ErrCorrupt, err)
		}
		pack := make([]uint32, plen)
		for j := range pack {
			pack[j] = binary.LittleEndian.Uint32(buf[4*j:])
			if tid := pack[j] >> ScoreBits; tid >= nTerms || j > 0 && tid <= pack[j-1]>>ScoreBits {
				return nil, fmt.Errorf("%w: pack %q has a TID out of order or beyond the table", ErrCorrupt, name)
			}
		}
		kp.packs[name] = pack
	}
	return kp, nil
}
