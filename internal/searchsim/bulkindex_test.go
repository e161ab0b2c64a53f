package searchsim

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"contextrank/internal/match"
)

// setGOMAXPROCS is the root package's helper (parallel_test.go).
func setGOMAXPROCS(t *testing.T, n int) {
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// randomRawDocs builds a deterministic random document set over a small
// vocabulary, dense enough that many terms repeat across chunks.
func randomRawDocs(seed int64, n int) []textDoc {
	rng := rand.New(rand.NewSource(seed))
	vocab := make([]string, 60)
	for i := range vocab {
		vocab[i] = fmt.Sprintf("w%02d", i)
	}
	docs := make([]textDoc, n)
	for i := range docs {
		toks := make([]string, 5+rng.Intn(36))
		for j := range toks {
			toks[j] = vocab[rng.Intn(len(vocab))]
		}
		docs[i] = textDoc{tokens: toks, topic: rng.Intn(4)}
	}
	return docs
}

// textDoc is a test document as its tokens.
type textDoc struct {
	tokens []string
	topic  int
}

// text is the document as Add takes it: its tokens joined by spaces, which
// textproc.Words splits back into the same tokens.
func (d textDoc) text() string { return strings.Join(d.tokens, " ") }

// bulkEngine is newBulkEngine over documents given as tokens: it interns
// them into a token table first, as BuildCorpus's token table does.
func bulkEngine(docs []textDoc) *Engine {
	tab := match.NewVocab()
	raw := make([]rawDoc, len(docs))
	for i, d := range docs {
		raw[i].topic = d.topic
		for _, tok := range d.tokens {
			raw[i].ids = append(raw[i].ids, tab.Intern(tok))
		}
	}
	return newBulkEngine(tab, raw)
}

// liveFrozen indexes docs the way a document stream arrives — Add one at a
// time, auto-sealing at memFlushDocs, a final Commit — and folds the raw
// segment stack into one frozen segment.
func liveFrozen(docs []textDoc) *Engine {
	e := NewEngine()
	for _, d := range docs {
		e.Add(d.text(), d.topic)
	}
	e.Commit()
	e.CompactAll()
	return e
}

func engineEqual(t *testing.T, label string, got, want *Engine) {
	t.Helper()
	if got.vocab.Len() != want.vocab.Len() {
		t.Fatalf("%s: vocab %d terms, want %d", label, got.vocab.Len(), want.vocab.Len())
	}
	for id := uint32(0); int(id) < want.vocab.Len(); id++ {
		if g, w := got.vocab.Token(id), want.vocab.Token(id); g != w {
			t.Fatalf("%s: term id %d = %q, want %q (intern order diverged)", label, id, g, w)
		}
	}
	docsEqual(t, label, got, want)
	if len(got.segs) != 1 || len(want.segs) != 1 || !reflect.DeepEqual(got.segs[0].frozen, want.segs[0].frozen) {
		t.Fatalf("%s: frozen postings diverged", label)
	}
	if !reflect.DeepEqual(got.stopID, want.stopID) {
		t.Fatalf("%s: stopword table diverged", label)
	}
	if g, w := got.NumDocs(), want.NumDocs(); g != w {
		t.Fatalf("%s: %d docs, want %d", label, g, w)
	}
	for id := uint32(0); int(id) < want.vocab.Len(); id++ {
		term := want.vocab.Token(id)
		if g, w := got.DocFreq(term), want.DocFreq(term); g != w {
			t.Fatalf("%s: df(%q) = %d, want %d", label, term, g, w)
		}
	}
}

// docsEqual fails unless every visible document of got has want's encoded
// token bytes, token count, topic and decoded token ids, and both engines'
// forward arenas are exact: their documents' bytes sum to ForwardBytes and
// no document's slice reaches past its own bytes.
func docsEqual(t *testing.T, label string, got, want *Engine) {
	t.Helper()
	gv, wv := got.cur.Load(), want.cur.Load()
	if len(gv.docs) != len(wv.docs) || len(gv.lens) != len(gv.docs) || len(wv.lens) != len(wv.docs) {
		t.Fatalf("%s: %d visible documents (%d counts), want %d (%d)", label, len(gv.docs), len(gv.lens), len(wv.docs), len(wv.lens))
	}
	var gBytes, wBytes int
	for id := range wv.docs {
		g, w := gv.docs[id], wv.docs[id]
		gn, wn := gv.lens[id], wv.lens[id]
		if !bytes.Equal(g.toks, w.toks) || gn != wn || g.topic != w.topic {
			t.Fatalf("%s: doc %d = %d tokens %x (topic %d), want %d tokens %x (topic %d)",
				label, id, gn, g.toks, g.topic, wn, w.toks, w.topic)
		}
		if cap(g.toks) != len(g.toks) || cap(w.toks) != len(w.toks) {
			t.Fatalf("%s: doc %d's slice reaches past its bytes", label, id)
		}
		gd, _ := got.Doc(id)
		wd, _ := want.Doc(id)
		if gt, wt := gd.AppendTokens(nil), wd.AppendTokens(nil); gd.Len() != len(gt) || !slices.Equal(gt, wt) {
			t.Fatalf("%s: doc %d decodes to %v (Len %d), want %v", label, id, gt, gd.Len(), wt)
		}
		gBytes += len(g.toks)
		wBytes += len(w.toks)
	}
	if g, w := got.Stats().ForwardBytes, want.Stats().ForwardBytes; g != gBytes || w != wBytes || g != w {
		t.Fatalf("%s: ForwardBytes %d and %d, documents hold %d and %d", label, g, w, gBytes, wBytes)
	}
}

// The bulk parallel constructor must reproduce the live path — Add, Commit,
// CompactAll — bit for bit: vocabulary intern order, documents, frozen
// postings, stopword table, document frequencies, every document's encoded
// token ids — at every GOMAXPROCS, with the same size accounting at each.
func TestBulkIndexMatchesSerial(t *testing.T) {
	docs := randomRawDocs(7, 120)
	live := liveFrozen(docs)
	var stats IndexStats
	for i, procs := range []int{1, 2, 3, 5, 16, runtime.NumCPU()} {
		setGOMAXPROCS(t, procs)
		bulk := bulkEngine(docs)
		engineEqual(t, fmt.Sprintf("GOMAXPROCS=%d", procs), bulk, live)
		if i == 0 {
			stats = bulk.Stats()
		} else if st := bulk.Stats(); st != stats {
			t.Fatalf("GOMAXPROCS=%d: stats = %+v, want %+v", procs, st, stats)
		}
	}
	if stats.Postings == 0 || stats.FrozenBytes == 0 || stats.Segments != 1 || stats.Epoch != 1 {
		t.Fatalf("bulk build left no size accounting: %+v", stats)
	}
}

// Add on a bulk-built engine lands in the memtable: invisible until Commit,
// then answering as a from-scratch build over the concatenated stream.
func TestBulkIndexAfterFreezeAppends(t *testing.T) {
	docs := randomRawDocs(3, 40)
	e := bulkEngine(docs[:25])
	for _, d := range docs[25:] {
		e.Add(d.text(), d.topic)
	}
	if n := e.NumDocs(); n != 25 {
		t.Fatalf("pre-commit visible docs = %d, want 25 (memtable must stay private)", n)
	}
	e.Commit()
	if n := e.NumDocs(); n != len(docs) {
		t.Fatalf("post-commit visible docs = %d, want %d", n, len(docs))
	}
	want := fromScratch(docs)
	for _, q := range []string{"w00", "w01 w02", "w10 w11 w12", "w59"} {
		if g, w := e.ResultCount(q), want.ResultCount(q); g != w {
			t.Fatalf("ResultCount(%q) = %d, want %d", q, g, w)
		}
	}
}

// The bulk build's compression pass must produce the identical frozen
// segment — header table and arenas — and size accounting at every
// GOMAXPROCS (a term's frozen bytes are a pure function of its postings, and
// encode chunks are concatenated in term order).
func TestFreezeWorkersDeterministic(t *testing.T) {
	docs := randomRawDocs(13, 150)
	setGOMAXPROCS(t, 1)
	want := bulkEngine(docs)
	for _, procs := range []int{2, 5, runtime.NumCPU()} {
		setGOMAXPROCS(t, procs)
		e := bulkEngine(docs)
		if !reflect.DeepEqual(e.segs[0].frozen, want.segs[0].frozen) {
			t.Fatalf("GOMAXPROCS=%d: frozen header table or arenas diverged", procs)
		}
		if e.stats != want.stats {
			t.Fatalf("GOMAXPROCS=%d: stats = %+v, want %+v", procs, e.stats, want.stats)
		}
	}
}
