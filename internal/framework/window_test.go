package framework

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"contextrank/internal/corpus"
	"contextrank/internal/relevance"
	"contextrank/internal/stem"
	"contextrank/internal/textproc"
)

// localTIDs is a detection's relevance context computed the way the
// runtime did before it kept the stemmed document: the window's text
// tokenized and stemmed on its own. It is the oracle windowTIDs must equal.
func (rt *Runtime) localTIDs(text string, pos int) map[uint32]bool {
	lo, hi := relevance.LocalWindow(text, pos)
	stems := make(map[string]bool)
	for _, w := range textproc.ContentWords(text[lo:hi]) {
		stems[stem.Stem(w)] = true
	}
	return rt.Packs.DocTIDs(stems)
}

// windowRuntime is resilienceRuntime with keyword packs over enough
// ordinary stems that a window's TID set says something.
func windowRuntime(t testing.TB) *Runtime {
	var pack corpus.Vector
	for i, w := range strings.Fields("ctx market report price trade bank rate growth oil share fund storm naïve café 2008 3.5 well-known") {
		pack = append(pack, corpus.Entry{Term: stem.Stem(w), Weight: float64(1 + i)})
	}
	return resilienceRuntimeWith(t, BuildKeywordPacks(relevance.NewStore(relevance.Snippets, map[string]corpus.Vector{
		"alphaword": pack, "betaword": pack[:4],
	})))
}

// checkWindows analyses text as AnnotateCtx does and checks, for pos and
// the first byte of every token and every detection, that the window is
// the token range windowTIDs walks: the same tokens the window's own text
// tokenizes to, and the same TID set as the oracle.
func checkWindows(t *testing.T, rt *Runtime, text string, pos int) {
	t.Helper()
	sc := annPool.Get().(*annScratch)
	defer annPool.Put(sc)
	sc.tokens = textproc.TokenizeInto(text, sc.tokens[:0])
	rt.lookupWords(sc, true)
	check := func(pos int) {
		t.Helper()
		lo, hi := relevance.LocalWindow(text, pos)
		var got []textproc.Token
		for _, tok := range sc.tokens {
			if tok.Start >= lo && tok.Start < hi {
				tok.Start, tok.End = tok.Start-lo, tok.End-lo
				got = append(got, tok)
			}
		}
		want := textproc.Tokenize(text[lo:hi])
		if len(got)+len(want) > 0 && !reflect.DeepEqual(got, want) {
			t.Fatalf("window [%d,%d) of %q: tokens in range\n got %+v\nwant %+v", lo, hi, text, got, want)
		}
		sc.windowTIDs(rt.Packs.TIDs.Len(), text, pos)
		gotTIDs, wantTIDs := sc.window.members(), rt.localTIDs(text, pos)
		if len(gotTIDs)+len(wantTIDs) > 0 && !reflect.DeepEqual(gotTIDs, wantTIDs) {
			t.Fatalf("position %d of %q: TIDs %v, want %v", pos, text, gotTIDs, wantTIDs)
		}
	}
	check(pos)
	for _, tok := range sc.tokens {
		check(tok.Start)
	}
	for _, d := range rt.Pipeline.Detect(text) {
		check(d.Start)
	}
}

// windowCases: windows clipped at both edges of the text, at one, at
// neither; '\n' and ' ' as the edge; tabs and CRs as the only whitespace
// (the window then runs to the edges of the text); multibyte runes and
// invalid UTF-8 where the radius lands.
var windowCases = func() []string {
	prose := "the alphaword market report said oil prices and bank rates rose 3.5 percent in 2008; the betaword fund's well-known naïve café trade grew. "
	long := strings.Repeat(prose, 8)
	return []string{
		"",
		"alphaword",
		resilienceDoc,
		prose,
		long,
		strings.ReplaceAll(long, " ", "\n"),
		strings.ReplaceAll(long, " ", "\t"),
		strings.ReplaceAll(long, " ", "\r"),
		strings.ReplaceAll(long, " ", "\u00a0"),
		strings.ReplaceAll(long, ". ", ".\n\n"),
		strings.ReplaceAll(long, "e", "é"),
		strings.ReplaceAll(long, "a", "\xff"),
		strings.ReplaceAll(long, "o", "\xe2\x82"),
		strings.Repeat("é", 299) + " alphaword " + strings.Repeat("中", 100) + " ctx",
		strings.Repeat("x", 700) + " alphaword " + strings.Repeat("y", 700),
	}
}()

func TestWindowTIDsMatchSubstringTokenization(t *testing.T) {
	rt := windowRuntime(t)
	for _, text := range windowCases {
		checkWindows(t, rt, text, 0)
		checkWindows(t, rt, text, len(text)/2)
		checkWindows(t, rt, text, len(text))
	}
}

func FuzzWindowTIDs(f *testing.F) {
	for i, text := range windowCases {
		f.Add(text, uint(i*97))
	}
	rt := windowRuntime(f)
	f.Fuzz(func(t *testing.T, text string, pos uint) {
		checkWindows(t, rt, text, int(pos%uint(len(text)+1)))
	})
}

// cancelAfter is a context that reports cancellation from its nth Err call
// on: AnnotateCtx polls Err on entry, after the stemmer stage, and in the
// ranking loop.
type cancelAfter struct {
	context.Context
	polls int
}

func (c *cancelAfter) Err() error {
	if c.polls--; c.polls < 0 {
		return context.Canceled
	}
	return nil
}

// TestAbandonedStagesRecordNothing: the throughput accumulators move
// together and only for completed documents. A request cancelled after the
// stemmer stage, or in the ranking loop, leaves all three alone, and so
// does StemDoc — stem time without the bytes it covered would deflate the
// stemmer's MB/s.
func TestAbandonedStagesRecordNothing(t *testing.T) {
	rt := resilienceRuntime(t)
	rt.Annotate(resilienceDoc, 0)
	stemNs, rankNs, bytes := rt.stemNanos.Load(), rt.rankNanos.Load(), rt.bytesProcessed.Load()
	if stemNs <= 0 || rankNs <= 0 || bytes != int64(len(resilienceDoc)) {
		t.Fatalf("completed document not recorded: stem %d ns, rank %d ns, %d bytes", stemNs, rankNs, bytes)
	}
	for polls := 1; polls <= 2; polls++ {
		anns, err := rt.AnnotateCtx(&cancelAfter{Context: context.Background(), polls: polls}, resilienceDoc, 0)
		if err != context.Canceled || anns != nil {
			t.Fatalf("cancelled at poll %d: anns %+v, err %v", polls+1, anns, err)
		}
	}
	rt.StemDoc(resilienceDoc)
	if s, r, b := rt.stemNanos.Load(), rt.rankNanos.Load(), rt.bytesProcessed.Load(); s != stemNs || r != rankNs || b != bytes {
		t.Fatalf("abandoned work moved the accumulators: stem %d→%d ns, rank %d→%d ns, bytes %d→%d", stemNs, s, rankNs, r, bytes, b)
	}
}
