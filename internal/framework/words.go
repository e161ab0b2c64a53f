package framework

import (
	"contextrank/internal/detect"
	"contextrank/internal/match"
	"contextrank/internal/stem"
	"contextrank/internal/textproc"
)

// wordEntry is all the runtime needs of one normalized word: the Global TID
// of its Porter stem (match.NoID for a stop word or a stem no pack uses)
// and its ids in the detection pipeline's vocabularies.
type wordEntry struct {
	tid uint32
	ids detect.WordIDs
}

// noEntry is the entry of a punctuation token, and the start of a content
// word's entry outside the table.
var noEntry = wordEntry{tid: match.NoID, ids: detect.NoWord}

// entryOf is the definition the word table caches: a stop word has no TID,
// any other word the TID of its Porter stem, and every word the pipeline's
// ids. The stem is built in *buf.
func entryOf(p *detect.Pipeline, tids *match.Vocab, w string, buf *[]byte) wordEntry {
	e := wordEntry{tid: match.NoID, ids: p.IDsOf(w)}
	if !textproc.IsStopword(w) {
		*buf = stem.AppendStem((*buf)[:0], w)
		e.tid = tids.IDBytes(*buf)
	}
	return e
}

// newWordTable builds the runtime's frozen word → entryOf table over every
// stop word, every word of the pipeline's vocabularies and every TID that
// is its own stem, stemming each key once. A word outside that set is a
// content word in neither vocabulary, so its entry is noEntry's ids and
// the TID of its stem, which the runtime computes into a scratch buffer
// (lookupWords); TestWordTableMatchesDefinition holds both paths to
// entryOf.
func newWordTable(p *detect.Pipeline, tids *match.Vocab) map[string]wordEntry {
	stops, vocabs := textproc.Stopwords(), p.Vocabs()
	n := len(stops) + tids.Len()
	for _, v := range vocabs {
		n += v.Len()
	}
	words := make(map[string]wordEntry, n)
	var buf []byte
	for _, w := range stops {
		words[w] = entryOf(p, tids, w, &buf)
	}
	for _, v := range vocabs {
		for id := range v.Len() {
			if w := v.Token(uint32(id)); !hasWord(words, w) {
				words[w] = entryOf(p, tids, w, &buf)
			}
		}
	}
	for id := range tids.Len() {
		w := tids.Token(uint32(id))
		if hasWord(words, w) {
			continue
		}
		// Stop words are already in, so a self-stemming TID's entry is its
		// own id.
		if buf = stem.AppendStem(buf[:0], w); string(buf) == w {
			words[w] = wordEntry{tid: uint32(id), ids: p.IDsOf(w)}
		}
	}
	return words
}

func hasWord(words map[string]wordEntry, w string) bool {
	_, ok := words[w]
	return ok
}
