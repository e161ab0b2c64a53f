package searchsim

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// randomRawDocs builds a deterministic random document set over a small
// vocabulary, dense enough that many terms repeat across chunks.
func randomRawDocs(seed int64, n int) []rawDoc {
	rng := rand.New(rand.NewSource(seed))
	vocab := make([]string, 60)
	for i := range vocab {
		vocab[i] = fmt.Sprintf("w%02d", i)
	}
	docs := make([]rawDoc, n)
	for i := range docs {
		toks := make([]string, 5+rng.Intn(36))
		for j := range toks {
			toks[j] = vocab[rng.Intn(len(vocab))]
		}
		docs[i] = rawDoc{text: strings.Join(toks, " "), tokens: toks, topic: rng.Intn(4)}
	}
	return docs
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
	if !reflect.DeepEqual(got.Docs, want.Docs) {
		t.Fatalf("%s: documents diverged", label)
	}
	if !reflect.DeepEqual(got.raw, want.raw) {
		t.Fatalf("%s: raw postings diverged", label)
	}
	if g, w := got.dict.NumDocs(), want.dict.NumDocs(); g != w {
		t.Fatalf("%s: dict docs %d, want %d", label, g, w)
	}
	if g, w := got.dict.NumTerms(), want.dict.NumTerms(); g != w {
		t.Fatalf("%s: dict terms %d, want %d", label, g, w)
	}
	for id := uint32(0); int(id) < want.vocab.Len(); id++ {
		term := want.vocab.Token(id)
		if g, w := got.dict.DocFreq(term), want.dict.DocFreq(term); g != w {
			t.Fatalf("%s: df(%q) = %d, want %d", label, term, g, w)
		}
	}
}

// The bulk parallel indexer must reproduce the serial addTokenized loop bit
// for bit — vocabulary intern order, documents, postings, dictionary — at
// every worker count.
func TestBulkIndexMatchesSerial(t *testing.T) {
	docs := randomRawDocs(7, 120)
	serial := NewEngine()
	for _, d := range docs {
		serial.addTokenized(d.text, d.tokens, d.topic)
	}
	for _, w := range []int{1, 2, 3, 5, 16, 0} {
		bulk := NewEngine()
		bulk.indexTokenized(docs, w)
		engineEqual(t, fmt.Sprintf("workers=%d", w), bulk, serial)
	}
}

// Bulk indexing into a non-empty engine must equal one serial pass over the
// concatenated stream (the incremental path used when batches arrive).
func TestBulkIndexIncremental(t *testing.T) {
	docs := randomRawDocs(11, 90)
	serial := NewEngine()
	for _, d := range docs {
		serial.addTokenized(d.text, d.tokens, d.topic)
	}
	bulk := NewEngine()
	bulk.indexTokenized(docs[:31], 3)
	bulk.indexTokenized(docs[31:], 4)
	engineEqual(t, "incremental", bulk, serial)
}

// Bulk indexing after Freeze no longer panics: it lands in the live
// memtable (the old panic contract retired with the two-tier rework) and a
// Commit makes the docs visible with answers equal to a from-scratch build
// over the concatenated stream.
func TestBulkIndexAfterFreezeAppends(t *testing.T) {
	docs := randomRawDocs(3, 40)
	e := NewEngine()
	e.indexTokenized(docs[:25], 2)
	e.Freeze(1)
	e.indexTokenized(docs[25:], 3)
	if n := e.NumDocs(); n != 25 {
		t.Fatalf("pre-commit visible docs = %d, want 25 (memtable must stay private)", n)
	}
	e.Commit()
	if n := e.NumDocs(); n != len(docs) {
		t.Fatalf("post-commit visible docs = %d, want %d", n, len(docs))
	}
	want := NewEngine()
	for _, d := range docs {
		want.addTokenized(d.text, d.tokens, d.topic)
	}
	want.Freeze(1)
	for _, q := range []string{"w00", "w01 w02", "w10 w11 w12", "w59"} {
		if g, w := e.ResultCount(q), want.ResultCount(q); g != w {
			t.Fatalf("ResultCount(%q) = %d, want %d", q, g, w)
		}
	}
}

// Freeze must produce the identical frozen index at every worker
// count (freezeList is pure per term).
func TestFreezeWorkersDeterministic(t *testing.T) {
	docs := randomRawDocs(13, 150)
	want := NewEngine()
	want.indexTokenized(docs, 1)
	want.Freeze(1)
	for _, w := range []int{2, 5, 0} {
		e := NewEngine()
		e.indexTokenized(docs, 1)
		e.Freeze(w)
		if !reflect.DeepEqual(e.segs[0].frozen, want.segs[0].frozen) {
			t.Fatalf("Freeze(%d) frozen lists diverged", w)
		}
		if e.stats != want.stats {
			t.Fatalf("Freeze(%d) stats = %+v, want %+v", w, e.stats, want.stats)
		}
	}
}
