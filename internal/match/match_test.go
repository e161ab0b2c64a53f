package match

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// Match is one pattern occurrence in an id sequence: pattern id and token
// range [Start, End).
type Match struct {
	Pattern    int
	Start, End int
}

// appendMatches scans ids greedy-longest at every position with LongestAt
// and appends the matches to dst.
func appendMatches(m *Matcher, dst []Match, ids []uint32) []Match {
	for i := range ids {
		if p, end, ok := m.LongestAt(ids, i); ok {
			dst = append(dst, Match{Pattern: p, Start: i, End: end})
		}
	}
	return dst
}

// findTokens interns tokens against vocab, the vocabulary m's builder
// interned into, and returns all greedy-longest matches.
func findTokens(m *Matcher, vocab *Vocab, tokens []string) []Match {
	ids := vocab.AppendIDs(make([]uint32, 0, len(tokens)), tokens)
	return appendMatches(m, nil, ids)
}

// buildFrom compiles a matcher over phrases and returns it with its
// builder's vocabulary.
func buildFrom(phrases ...string) (*Matcher, *Vocab) {
	b := NewBuilder(nil)
	for _, p := range phrases {
		b.Add(strings.Fields(p))
	}
	return b.Build(), b.Vocab()
}

// reference is the pre-trie scanner semantics: phrases grouped by first
// token, longest first, probe each candidate at every position.
func reference(phrases []string, tokens []string) []Match {
	ids := map[string]int{}
	for i, p := range phrases {
		ids[p] = i
	}
	var out []Match
	for i := 0; i < len(tokens); i++ {
		bestLen := 0
		best := -1
		for _, p := range phrases {
			terms := strings.Fields(p)
			if len(terms) <= bestLen || i+len(terms) > len(tokens) {
				continue
			}
			ok := true
			for j, t := range terms {
				if tokens[i+j] != t {
					ok = false
					break
				}
			}
			if ok {
				best, bestLen = ids[p], len(terms)
			}
		}
		if best >= 0 {
			out = append(out, Match{Pattern: best, Start: i, End: i + bestLen})
		}
	}
	return out
}

func TestLongestMatchWins(t *testing.T) {
	m, v := buildFrom("new york", "new york city", "york")
	got := findTokens(m, v, strings.Fields("in new york city today"))
	// "new york city" wins at position 1; "york" still matches at position 2
	// (positions advance one token at a time, matching the legacy scanners —
	// the downstream collision pass drops the nested span).
	want := []Match{{Pattern: 1, Start: 1, End: 4}, {Pattern: 2, Start: 2, End: 3}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %+v want %+v", got, want)
	}
}

func TestNestedPhraseAtLaterPositionStillFound(t *testing.T) {
	m, v := buildFrom("new york city", "york")
	got := findTokens(m, v, strings.Fields("new york city"))
	// Greedy-longest at position 0, plus "york" at position 1: the scanner
	// advances one token at a time, exactly like the byFirst loops did.
	want := []Match{{Pattern: 0, Start: 0, End: 3}, {Pattern: 1, Start: 1, End: 2}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %+v want %+v", got, want)
	}
}

func TestUnknownTokenBreaksWalk(t *testing.T) {
	m, v := buildFrom("alpha beta gamma")
	if got := findTokens(m, v, strings.Fields("alpha beta delta")); len(got) != 0 {
		t.Fatalf("unexpected match through unknown token: %+v", got)
	}
	if got := findTokens(m, v, strings.Fields("alpha beta gamma")); len(got) != 1 {
		t.Fatalf("full phrase should match: %+v", got)
	}
}

func TestDuplicateAddReturnsSameID(t *testing.T) {
	b := NewBuilder(nil)
	a := b.Add([]string{"x", "y"})
	if b.Add([]string{"x", "y"}) != a {
		t.Fatal("duplicate pattern got a new id")
	}
	if b.Add(nil) != -1 {
		t.Fatal("empty pattern should be rejected")
	}
	if b.patterns != 1 {
		t.Fatalf("patterns=%d", b.patterns)
	}
}

func TestSharedVocabAcrossBuilders(t *testing.T) {
	v := NewVocab()
	b1 := NewBuilder(v)
	b1.Add([]string{"jaguar"})
	b2 := NewBuilder(v)
	b2.Add([]string{"jaguar", "cars"})
	m1, m2 := b1.Build(), b2.Build()
	toks := []string{"jaguar", "cars"}
	ids := v.AppendIDs(nil, toks)
	if got := appendMatches(m1, nil, ids); len(got) != 1 || got[0].End != 1 {
		t.Fatalf("m1 matches = %+v", got)
	}
	if got := appendMatches(m2, nil, ids); len(got) != 1 || got[0].End != 2 {
		t.Fatalf("m2 matches = %+v", got)
	}
}

func TestVocabUnknownIsNoID(t *testing.T) {
	v := NewVocab()
	v.Intern("known")
	if v.ID("unknown") != NoID {
		t.Fatal("unknown token must map to NoID")
	}
	if v.ID("known") != 0 || v.Token(0) != "known" || v.Len() != 1 {
		t.Fatal("interning bookkeeping broken")
	}
}

func TestEmptyAndShortInputs(t *testing.T) {
	m, v := buildFrom("a b c")
	if got := findTokens(m, v, nil); len(got) != 0 {
		t.Fatalf("empty input matched: %+v", got)
	}
	if got := findTokens(m, v, []string{"a", "b"}); len(got) != 0 {
		t.Fatalf("phrase longer than input matched: %+v", got)
	}
}

// mapTrie is the matcher as it was before Build compiled it into arrays:
// the builder's edge map probed once per walked token. It is the oracle of
// the compiled walk.
type mapTrie struct {
	pattern []int32
	edges   map[uint64]int32
}

// buildBoth compiles b, returning the compiled matcher and the map trie
// over the same edges.
func buildBoth(b *Builder) (*Matcher, mapTrie) {
	ref := mapTrie{pattern: b.pattern, edges: b.edges}
	return b.Build(), ref
}

func (t mapTrie) LongestAt(ids []uint32, i int) (pattern, end int, ok bool) {
	node := int32(0)
	best := noPattern
	for j := i; j < len(ids); j++ {
		id := ids[j]
		if id == NoID {
			break
		}
		child, found := t.edges[edgeKey(node, id)]
		if !found {
			break
		}
		node = child
		if p := t.pattern[node]; p != noPattern {
			best, end = p, j+1
		}
	}
	if best == noPattern {
		return 0, 0, false
	}
	return int(best), end, true
}

// checkAgainstMapTrie compares LongestAt at every position of ids.
func checkAgainstMapTrie(t *testing.T, label string, m *Matcher, ref mapTrie, ids []uint32) {
	t.Helper()
	for i := range ids {
		p, end, ok := m.LongestAt(ids, i)
		rp, rend, rok := ref.LongestAt(ids, i)
		if p != rp || end != rend || ok != rok {
			t.Fatalf("%s: LongestAt(%v, %d) = (%d, %d, %v), map trie (%d, %d, %v)", label, ids, i, p, end, ok, rp, rend, rok)
		}
	}
}

// randomPhrases draws n distinct phrases of 1 to maxLen tokens from vocabulary.
func randomPhrases(rng *rand.Rand, vocabulary []string, n, maxLen int) []string {
	seen := map[string]bool{}
	var phrases []string
	for len(phrases) < n {
		terms := make([]string, 1+rng.Intn(maxLen))
		for i := range terms {
			terms[i] = vocabulary[rng.Intn(len(vocabulary))]
		}
		p := strings.Join(terms, " ")
		if !seen[p] {
			seen[p] = true
			phrases = append(phrases, p)
		}
	}
	return phrases
}

// TestDifferentialRandom cross-checks the compiled trie against the
// reference quadratic scanner and the map trie on random phrase
// inventories and documents: narrow vocabularies with short phrases, wide
// roots (hundreds of one-token phrases over a large vocabulary) and deep
// chains (long phrases over a few tokens, sharing prefixes). Documents mix
// in a word of no phrase, which interns to NoID, and words a second
// builder sharing the vocabulary interns after the first Build: their ids
// lie past the first matcher's root array, start none of its patterns and
// end every walk through it, as the map trie, which has no edge for them,
// says.
func TestDifferentialRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	shapes := []struct {
		name                        string
		vocab, phrases, maxLen, doc int
	}{
		{"narrow", 30, 12, 4, 60},
		{"wide", 2000, 400, 2, 300},
		{"deep", 4, 60, 12, 200},
	}
	late := []string{"late0", "late1", "late2"}
	for _, sh := range shapes {
		vocabulary := make([]string, sh.vocab)
		for i := range vocabulary {
			vocabulary[i] = fmt.Sprintf("w%d", i)
		}
		for trial := 0; trial < 200; trial++ {
			label := fmt.Sprintf("%s trial %d", sh.name, trial)
			phrases := randomPhrases(rng, vocabulary, 1+rng.Intn(sh.phrases), sh.maxLen)
			doc := make([]string, rng.Intn(sh.doc))
			for i := range doc {
				switch rng.Intn(10) {
				case 0:
					doc[i] = "unknown"
				case 1:
					doc[i] = late[rng.Intn(len(late))]
				default:
					doc[i] = vocabulary[rng.Intn(len(vocabulary))]
				}
			}
			b := NewBuilder(nil)
			for _, p := range phrases {
				b.Add(strings.Fields(p))
			}
			v := b.Vocab()
			m, ref := buildBoth(b)
			got := findTokens(m, v, doc)
			if want := reference(phrases, doc); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: phrases=%v doc=%v\ngot  %+v\nwant %+v", label, phrases, doc, got, want)
			}

			b2 := NewBuilder(v)
			for _, p := range randomPhrases(rng, append(late, vocabulary...), 1+rng.Intn(sh.phrases), sh.maxLen) {
				b2.Add(strings.Fields(p))
			}
			b2.Add(late)
			m2, ref2 := buildBoth(b2)
			ids := v.AppendIDs(nil, doc)
			checkAgainstMapTrie(t, label, m, ref, ids)
			checkAgainstMapTrie(t, label+", second matcher", m2, ref2, ids)
			for _, w := range append(late, "unknown") {
				if _, _, ok := m.LongestAt([]uint32{v.ID(w)}, 0); ok {
					t.Fatalf("%s: %q, interned after Build or never, matched", label, w)
				}
			}
		}
	}
}

func TestLongestAtZeroAlloc(t *testing.T) {
	m, v := buildFrom("alpha beta", "gamma")
	ids := v.AppendIDs(nil, []string{"alpha", "beta", "gamma", "alpha", "beta"})
	found := 0
	allocs := testing.AllocsPerRun(100, func() {
		found = 0
		for i := range ids {
			if _, _, ok := m.LongestAt(ids, i); ok {
				found++
			}
		}
	})
	if allocs != 0 || found != 3 {
		t.Fatalf("LongestAt scan allocated %.1f objects per run and found %d matches, want 0 and 3", allocs, found)
	}
	idBuf := make([]uint32, 0, 8)
	toks := []string{"alpha", "beta", "zzz"}
	allocs = testing.AllocsPerRun(100, func() {
		idBuf = v.AppendIDs(idBuf[:0], toks)
	})
	if allocs != 0 {
		t.Fatalf("AppendIDs allocated %.1f objects per run", allocs)
	}
}
