package framework

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"

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
//	model        uint32 width w, then w float64 weights, w means, w scales
//	checksum     CRC32 (IEEE) of everything before it
//
// A string is a uvarint byte length and its bytes. Each concept is named
// once, so the two tables cannot disagree about which concepts exist. The
// model is the linear ranker the runtime serves, in the layout it scores.

// Bundle is the complete offline artifact behind one runtime.
type Bundle struct {
	Interest *InterestTable
	Packs    *KeywordPacks
	Model    *ranksvm.Model
}

var bundleMagic = [8]byte{'C', 'T', 'X', 'R', 'A', 'N', 'K', 3}

// ErrCorrupt is returned when a bundle fails validation.
var ErrCorrupt = errors.New("framework: corrupt bundle")

// Save writes the bundle, the packs in the interest table's rows. The file
// names each concept once, so a bundle whose tables name different
// concepts is refused: a concept without a pack would be served with
// relevance 0, one without an interest row never. So is a model that is
// not linear: the file holds the one kind the runtime serves.
func (b *Bundle) Save(w io.Writer) error {
	t := b.Interest
	kp, whole := b.Packs.inRows(t)
	if !whole || b.Packs.Len() != t.Len() {
		return fmt.Errorf("framework: the %d interest rows and %d keyword packs name different concepts", t.Len(), b.Packs.Len())
	}
	if b.Model.Kernel != ranksvm.Linear {
		return fmt.Errorf("framework: a bundle holds a linear model, not kernel %d", b.Model.Kernel)
	}
	le := binary.LittleEndian
	buf := append([]byte(nil), bundleMagic[:]...)
	for _, m := range t.calib.Max {
		buf = le.AppendUint64(buf, math.Float64bits(m))
	}
	buf = le.AppendUint32(buf, uint32(t.Len()))
	for r := range t.Len() {
		buf = appendString(buf, t.names.Token(uint32(r)))
	}
	for _, v := range t.data {
		buf = le.AppendUint16(buf, v)
	}
	buf = le.AppendUint64(buf, math.Float64bits(kp.maxScore))
	buf = le.AppendUint32(buf, uint32(kp.TIDs.Len()))
	for i := range kp.TIDs.Len() {
		buf = appendString(buf, kp.TIDs.Token(uint32(i)))
	}
	for _, pack := range kp.packs {
		buf, _ = appendPack(buf, pack)
	}
	buf = appendModel(buf, b.Model)
	buf = le.AppendUint32(buf, crc32.ChecksumIEEE(buf))
	_, err := w.Write(buf)
	return err
}

func appendString(buf []byte, s string) []byte {
	return append(binary.AppendUvarint(buf, uint64(len(s))), s...)
}

// appendModel appends a linear model's block: its width, then its weights,
// means and scales.
func appendModel(buf []byte, m *ranksvm.Model) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(m.Weights)))
	for _, x := range slices.Concat(m.Weights, m.Mean, m.Scale) {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(x))
	}
	return buf
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
	b.Interest, b.Packs = d.tables()
	b.Model = d.model()
	if d.err == nil && len(d.buf) != 0 {
		d.fail("bytes after the model")
	}
	if d.err != nil {
		return nil, d.err
	}
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(data[len(body):]) {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
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

// bytes reads a string's bytes in place: they alias the file's buffer.
func (d *decoder) bytes(what string) []byte {
	return d.take(d.uvarint(what), what)
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

// tables reads the calibration, concept names and interest rows, then the
// pack scale, Global TID Table and a pack per row, over the same names.
func (d *decoder) tables() (*InterestTable, *KeywordPacks) {
	t := &InterestTable{}
	for i := range t.calib.Max {
		t.calib.Max[i] = d.f64("calibration")
	}
	n := d.count("concept count")
	t.names = d.vocab(n, "concept name")
	raw := d.take(2*uint64(n)*NumFields, "interest data")
	if d.err != nil {
		return nil, nil
	}
	t.data = make([]uint16, n*NumFields)
	for i := range t.data {
		t.data[i] = binary.LittleEndian.Uint16(raw[2*i:])
	}
	kp := &KeywordPacks{names: t.names, packs: make([][]uint32, n), maxScore: d.f64("pack scale")}
	nTerms := d.count("TID count")
	if nTerms > MaxTID {
		d.fail("TID count")
	}
	kp.TIDs = d.vocab(nTerms, "TID term")
	for r := range kp.packs {
		kp.packs[r] = d.pack(uint32(nTerms))
	}
	return t, kp
}

// model reads the model block. A model fitted to another layout would
// index past its weights on the first ranked concept, or score with the
// wrong ones, so the width must be modelDim before any float is read. A
// weight or mean must be finite and a scale finite and positive: any other
// scores every ranked concept ±Inf or NaN.
func (d *decoder) model() *ranksvm.Model {
	if w := d.u32("model width"); d.err != nil || w != uint32(modelDim) {
		d.fail(fmt.Sprintf("model has %d features, the runtime's layout %d", w, modelDim))
		return nil
	}
	v := make([]float64, 3*modelDim)
	for i := range v {
		v[i] = d.f64("model")
		if math.IsNaN(v[i]) || math.IsInf(v[i], 0) || i >= 2*modelDim && v[i] <= 0 {
			d.fail("model weight, mean or scale out of range")
		}
	}
	return &ranksvm.Model{Kernel: ranksvm.Linear, Weights: v[:modelDim:modelDim], Mean: v[modelDim : 2*modelDim : 2*modelDim], Scale: v[2*modelDim:]}
}

// vocab reads n strings into a vocabulary, the i'th as id i. It copies
// each out of the file; a repeated one is corrupt.
func (d *decoder) vocab(n int, what string) *match.Vocab {
	v := match.NewVocab()
	for i := 0; i < n && d.err == nil; i++ {
		if s := d.bytes(what); v.InternBytes(s) != uint32(i) {
			d.fail(fmt.Sprintf("duplicate %s %q", what, s))
		}
	}
	return v
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
