package framework

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"contextrank/internal/golomb"
	"contextrank/internal/match"
	"contextrank/internal/ranksvm"
)

// This file implements bundle persistence: the paper's offline pipeline
// produces "data-packs that are pre-loaded into memory to allow for
// high-performance entity detection" — the production runtime must start
// from a serialized artifact, not by re-mining the web. A Bundle is the
// interestingness table + keyword packs + trained model, written
// little-endian with a magic header, version byte and trailing CRC32 so
// corrupt or truncated files fail loudly. The layout, in order:
//
//	magic        "CTXRANK" and the version byte
//	calibration  NumFields float64 field maxima
//	concepts     uint32 count n, then n names in interest-row order
//	interest     n·NumFields uint16 quantized fields, row after row
//	pack scale   float64 (the score dequantization scale)
//	TID table    uint32 count, then each term in TID order
//	packs        one per concept, in row order and unnamed (appendPack)
//	model        uint32 byte length, then the model's JSON
//	checksum     CRC32 (IEEE) of everything before it
//
// A string is a uvarint byte length and its bytes. Each concept is named
// once, so the two tables cannot disagree about which concepts exist.

// Bundle is the complete offline artifact behind one runtime.
type Bundle struct {
	Interest *InterestTable
	Packs    *KeywordPacks
	Model    *ranksvm.Model
}

var bundleMagic = [8]byte{'C', 'T', 'X', 'R', 'A', 'N', 'K', 2}

// ErrCorrupt is returned when a bundle fails validation.
var ErrCorrupt = errors.New("framework: corrupt bundle")

// Save writes the bundle. Both tables are keyed by concept name and the
// file names each concept once, so a bundle whose tables name different
// concepts is refused: a concept without a pack would be served with
// relevance 0, one without an interest row never.
func (b *Bundle) Save(w io.Writer) error {
	t, kp := b.Interest, b.Packs
	names := make([]string, len(t.index))
	for name, off := range t.index {
		names[off/NumFields] = name
	}
	if len(names) != kp.Len() {
		return fmt.Errorf("framework: %d interest rows but %d keyword packs", len(names), kp.Len())
	}
	var model bytes.Buffer
	if err := b.Model.Save(&model); err != nil {
		return err
	}
	le := binary.LittleEndian
	buf := append([]byte(nil), bundleMagic[:]...)
	for _, m := range t.calib.Max {
		buf = le.AppendUint64(buf, math.Float64bits(m))
	}
	buf = le.AppendUint32(buf, uint32(len(names)))
	for _, name := range names {
		buf = appendString(buf, name)
	}
	for _, v := range t.data {
		buf = le.AppendUint16(buf, v)
	}
	buf = le.AppendUint64(buf, math.Float64bits(kp.maxScore))
	buf = le.AppendUint32(buf, uint32(kp.TIDs.Len()))
	for i := range kp.TIDs.Len() {
		buf = appendString(buf, kp.TIDs.Token(uint32(i)))
	}
	for _, name := range names {
		pack, ok := kp.packs[name]
		if !ok {
			return fmt.Errorf("framework: concept %q has an interest row but no keyword pack", name)
		}
		buf, _ = appendPack(buf, pack)
	}
	buf = le.AppendUint32(buf, uint32(model.Len()))
	buf = append(buf, model.Bytes()...)
	buf = le.AppendUint32(buf, crc32.ChecksumIEEE(buf))
	_, err := w.Write(buf)
	return err
}

func appendString(buf []byte, s string) []byte {
	return append(binary.AppendUvarint(buf, uint64(len(s))), s...)
}

// appendPack appends one pack in the Golomb form §VI proposes: its entry
// count (uvarint) and, for a non-empty pack, its Golomb parameter (uvarint),
// the delta-Golomb TID stream (golomb.EncodeSorted) and the ScoreBits-wide
// score stream, each byte-aligned. streams is the two streams' byte length,
// the pack-entry size §VI measures.
func appendPack(buf []byte, pack []uint32) (out []byte, streams int) {
	buf = binary.AppendUvarint(buf, uint64(len(pack)))
	if len(pack) == 0 {
		return buf, 0
	}
	tids := make([]uint32, len(pack))
	var scores golomb.BitWriter
	for i, e := range pack {
		tid, q := unpackEntry(e)
		tids[i] = tid
		scores.WriteBits(uint64(q), ScoreBits)
	}
	data, m := golomb.EncodeSorted(tids)
	buf = binary.AppendUvarint(buf, uint64(m))
	buf = append(append(buf, data...), scores.Bytes()...)
	return buf, len(data) + len(scores.Bytes())
}

// LoadBundle reads and validates a bundle written by Save. Every count and
// length in it is a claim, checked against the bytes present before
// anything is allocated for it.
func LoadBundle(r io.Reader) (*Bundle, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if len(data) < len(bundleMagic)+4 || !bytes.Equal(data[:len(bundleMagic)], bundleMagic[:]) {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	body := data[:len(data)-4]
	d := &decoder{buf: body[len(bundleMagic):]}
	b := &Bundle{}
	names := d.interest(b)
	d.packs(b, names)
	modelBytes := d.take(uint64(d.u32("model length")), "model data")
	if d.err == nil && len(d.buf) != 0 {
		d.fail("bytes after the model")
	}
	if d.err != nil {
		return nil, d.err
	}
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(data[len(body):]) {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	if b.Model, err = ranksvm.Load(bytes.NewReader(modelBytes)); err != nil {
		return nil, fmt.Errorf("%w: model: %v", ErrCorrupt, err)
	}
	// A model fitted to another layout would index past its weights on the
	// first ranked concept, or score with the wrong ones.
	if dim := len(b.Model.Mean); dim != modelDim {
		return nil, fmt.Errorf("%w: model has %d features, the runtime's layout %d", ErrCorrupt, dim, modelDim)
	}
	return b, nil
}

// decoder reads a bundle's body. Its first failure sticks: every later read
// returns zero values, so a table is checked once, at its end.
type decoder struct {
	buf []byte
	err error
}

func (d *decoder) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: %s", ErrCorrupt, what)
	}
	d.buf = nil
}

// take consumes n bytes, failing if fewer are left.
func (d *decoder) take(n uint64, what string) []byte {
	if d.err != nil || n > uint64(len(d.buf)) {
		d.fail(what)
		return nil
	}
	out := d.buf[:n:n]
	d.buf = d.buf[n:]
	return out
}

func (d *decoder) u32(what string) uint32 {
	if b := d.take(4, what); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

func (d *decoder) f64(what string) float64 {
	if b := d.take(8, what); b != nil {
		return math.Float64frombits(binary.LittleEndian.Uint64(b))
	}
	return 0
}

func (d *decoder) uvarint(what string) uint64 {
	v, n := binary.Uvarint(d.buf)
	if d.err != nil || n <= 0 {
		d.fail(what)
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

func (d *decoder) str(what string) string {
	return string(d.take(d.uvarint(what), what))
}

// count reads a uint32 count of strings: each takes at least its length
// byte, so a count the bytes left cannot hold is corrupt.
func (d *decoder) count(what string) int {
	n := d.u32(what)
	if uint64(n) > uint64(len(d.buf)) {
		d.fail(what)
		return 0
	}
	return int(n)
}

// interest reads the calibration, the concept names and the interest rows
// into b.Interest, and returns the names in row order.
func (d *decoder) interest(b *Bundle) []string {
	t := &InterestTable{index: make(map[string]int)}
	for i := range t.calib.Max {
		t.calib.Max[i] = d.f64("calibration")
	}
	names := make([]string, d.count("concept count"))
	for i := range names {
		names[i] = d.str("concept name")
		if _, dup := t.index[names[i]]; dup && d.err == nil {
			d.fail(fmt.Sprintf("duplicate concept name %q", names[i]))
		}
		t.index[names[i]] = i * NumFields
	}
	raw := d.take(2*uint64(len(names))*NumFields, "interest data")
	if d.err != nil {
		return nil
	}
	t.data = make([]uint16, len(names)*NumFields)
	for i := range t.data {
		t.data[i] = binary.LittleEndian.Uint16(raw[2*i:])
	}
	b.Interest = t
	return names
}

// packs reads the pack scale, the Global TID Table and one pack per name
// into b.Packs.
func (d *decoder) packs(b *Bundle, names []string) {
	kp := &KeywordPacks{TIDs: match.NewVocab(), packs: make(map[string][]uint32)}
	kp.maxScore = d.f64("pack scale")
	nTerms := d.count("TID count")
	if nTerms > MaxTID {
		d.fail("TID count")
	}
	for i := 0; i < nTerms && d.err == nil; i++ {
		if term := d.str("TID term"); kp.TIDs.Intern(term) != uint32(i) {
			d.fail(fmt.Sprintf("duplicate TID term %q", term))
		}
	}
	for _, name := range names {
		kp.packs[name] = d.pack(uint32(nTerms))
	}
	b.Packs = kp
}

// pack reads one pack written by appendPack. Its entry count is a claim:
// every entry takes at least one TID bit and ScoreBits score bits, so a
// count the bytes left cannot hold fails before the pack is allocated. The
// gaps make the TIDs ascend strictly (scoreNorm adds every entry it finds,
// so a repeat would score twice); the last must fall inside the TID table.
func (d *decoder) pack(nTerms uint32) []uint32 {
	n := d.uvarint("pack length")
	if n == 0 {
		return nil
	}
	if n > maxPackLen || n*(ScoreBits+1) > 8*uint64(len(d.buf)) {
		d.fail("pack length")
		return nil
	}
	m := d.uvarint("Golomb parameter")
	if d.err != nil || m == 0 || m > MaxTID {
		d.fail("Golomb parameter")
		return nil
	}
	c := golomb.NewCodec(uint32(m))
	r := golomb.BitReaderAt(d.buf, 0)
	pack := make([]uint32, n)
	next := uint64(0) // the least TID the entry may take
	for i := range pack {
		gap, err := c.Read(&r)
		tid := next + uint64(gap)
		if err != nil || tid >= uint64(nTerms) {
			d.fail("pack TID beyond the stream or the TID table")
			return nil
		}
		pack[i] = uint32(tid) << ScoreBits
		next = tid + 1
	}
	r = golomb.BitReaderAt(d.buf, (r.BitPos()+7)&^7)
	for i := range pack {
		q, err := r.ReadBits(ScoreBits)
		if err != nil {
			d.fail("pack scores")
			return nil
		}
		pack[i] |= uint32(q)
	}
	d.buf = d.buf[(r.BitPos()+7)/8:]
	return pack
}

// maxPackLen bounds a loaded pack's entries, so scoreNorm's uint32 sums of
// 10-bit scores cannot overflow (2^20·1023 < 2^32).
const maxPackLen = 1 << 20
