package taxonomy

import (
	"reflect"
	"strings"
	"testing"

	"contextrank/internal/newsgen"
	"contextrank/internal/textproc"
	"contextrank/internal/world"
)

// findInTokens is FindInIDs over normalized tokens, the string form the
// tests state their documents in: greedy-longest at each position.
func findInTokens(d *Dictionary, tokens []string) []Match {
	if len(tokens) == 0 {
		return nil
	}
	return d.FindInIDs(d.vocab.AppendIDs(make([]uint32, 0, len(tokens)), tokens), nil)
}

// referenceFind is the pre-trie scanner semantics, kept as executable
// specification: at every position try phrases greedy-longest by re-joining
// token windows against the entries map, and always advance one token.
// The trie walk over interned ids must stay bit-identical to it.
func referenceFind(d *Dictionary, tokens []string) []Match {
	maxLen := 0
	for phrase := range d.entries {
		if n := len(strings.Fields(phrase)); n > maxLen {
			maxLen = n
		}
	}
	var out []Match
	for i := 0; i < len(tokens); i++ {
		for n := maxLen; n >= 1; n-- {
			if i+n > len(tokens) {
				continue
			}
			phrase := strings.Join(tokens[i:i+n], " ")
			if entries, ok := d.entries[phrase]; ok {
				out = append(out, Match{Phrase: phrase, Entries: entries, Start: i, End: i + n})
				break
			}
		}
	}
	return out
}

// TestDifferentialTrieVsReference scans a generated news corpus with both
// the trie matcher and the reference scanner and requires bit-identical
// match streams — the core equivalence claim of the detection rewrite.
func TestDifferentialTrieVsReference(t *testing.T) {
	w := world.New(world.Config{Seed: 71, VocabSize: 1500, NumTopics: 8, NumConcepts: 250})
	d := Build(w, 72)
	docs := newsgen.Generate(w, newsgen.Config{Seed: 73, NumStories: 30, MinSentences: 5, MaxSentences: 15})
	matched := 0
	for _, doc := range docs {
		tokens := textproc.Words(doc.Text)
		got := findInTokens(d, tokens)
		want := referenceFind(d, tokens)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trie and reference scanner disagree on story %d:\n got %+v\nwant %+v", doc.ID, got, want)
		}
		matched += len(got)
	}
	if matched == 0 {
		t.Fatal("differential corpus produced no matches — test is vacuous")
	}
}

// disambiguate is DisambiguateIDs over normalized context tokens, the
// string form the tests state their contexts in.
func disambiguate(d *Dictionary, m Match, context []string) Entry {
	if len(m.Entries) == 1 {
		return m.Entries[0]
	}
	ids := d.vocab.AppendIDs(make([]uint32, 0, len(context)), context)
	return *d.DisambiguateIDs(m, ids)
}

// TestDifferentialDisambiguation checks DisambiguateIDs against the
// string-based disambiguate on every ambiguous match of the corpus.
func TestDifferentialDisambiguation(t *testing.T) {
	w := world.New(world.Config{Seed: 71, VocabSize: 1500, NumTopics: 8, NumConcepts: 250})
	d := Build(w, 72)
	docs := newsgen.Generate(w, newsgen.Config{Seed: 74, NumStories: 30, MinSentences: 5, MaxSentences: 15})
	checked := 0
	for _, doc := range docs {
		tokens := textproc.Words(doc.Text)
		ids := d.Vocab().AppendIDs(nil, tokens)
		for _, m := range d.FindInIDs(ids, nil) {
			lo, hi := m.Start-25, m.End+25
			if lo < 0 {
				lo = 0
			}
			if hi > len(tokens) {
				hi = len(tokens)
			}
			want := disambiguate(d, m, tokens[lo:hi])
			got := d.DisambiguateIDs(m, ids[lo:hi])
			if got == nil || !reflect.DeepEqual(*got, want) {
				t.Fatalf("disambiguation disagrees for %q: got %+v want %+v", m.Phrase, got, want)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no matches disambiguated — test is vacuous")
	}
}
