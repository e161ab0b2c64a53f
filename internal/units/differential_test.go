package units

import (
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"

	"contextrank/internal/newsgen"
	"contextrank/internal/querylog"
	"contextrank/internal/textproc"
	"contextrank/internal/world"
)

// referenceFind is the pre-trie scanner kept as executable specification:
// greedy-longest lookup of re-joined token windows against the unit map,
// advancing one token per position. FindInIDs must stay bit-identical.
func referenceFind(s *Set, tokens []string) []Match {
	var out []Match
	for i := 0; i < len(tokens); i++ {
		for n := s.maxLen; n >= 1; n-- {
			if i+n > len(tokens) {
				continue
			}
			if u := s.units[strings.Join(tokens[i:i+n], " ")]; u != nil {
				out = append(out, Match{Unit: u, Start: i, End: i + n})
				break
			}
		}
	}
	return out
}

// referenceExtract is the direct string-keyed extraction kept as executable
// specification: n-grams keyed by joined text, per-query dedup through a
// fresh seen map, splits re-joined per probe. Extract's interned packed-key
// path must produce an identical unit inventory. It also returns each
// multi-term unit's raw mutual information, the minimum over its splits,
// whose share of the largest is the unit's score.
func referenceExtract(l *querylog.Log, cfg Config) (*Set, map[string]float64) {
	cfg = cfg.withDefaults()
	total := float64(l.TotalFreq())
	mis := make(map[string]float64)
	if total == 0 {
		s := &Set{units: map[string]*Unit{}, maxLen: cfg.MaxLen}
		s.buildIndex(nil)
		return s, mis
	}
	ngramFreq := make(map[string]int64)
	for _, q := range l.Queries {
		terms := strings.Fields(q.Text)
		seen := make(map[string]bool)
		for n := 1; n <= cfg.MaxLen; n++ {
			for i := 0; i+n <= len(terms); i++ {
				g := strings.Join(terms[i:i+n], " ")
				if !seen[g] {
					seen[g] = true
					ngramFreq[g] += int64(q.Freq)
				}
			}
		}
	}
	p := func(g string) float64 { return float64(ngramFreq[g]) / total }
	s := &Set{units: make(map[string]*Unit), maxLen: cfg.MaxLen}
	var maxTermFreq int64
	for g, f := range ngramFreq {
		if strings.IndexByte(g, ' ') < 0 && f > maxTermFreq {
			maxTermFreq = f
		}
	}
	for g, f := range ngramFreq {
		if strings.IndexByte(g, ' ') >= 0 {
			continue
		}
		s.units[g] = &Unit{
			Text:  g,
			Terms: []string{g},
			Freq:  f,
			Score: math.Log1p(float64(f)) / math.Log1p(float64(maxTermFreq)),
		}
	}
	var maxMI float64
	for n := 2; n <= cfg.MaxLen; n++ {
		grams := make([]string, 0)
		for g := range ngramFreq {
			if strings.Count(g, " ") == n-1 && ngramFreq[g] >= cfg.MinFreq {
				grams = append(grams, g)
			}
		}
		sort.Strings(grams)
		for _, g := range grams {
			terms := strings.Fields(g)
			mi := math.Inf(1)
			valid := true
			for split := 1; split < len(terms); split++ {
				left := strings.Join(terms[:split], " ")
				right := strings.Join(terms[split:], " ")
				if _, ok := s.units[left]; !ok {
					valid = false
					break
				}
				if _, ok := s.units[right]; !ok {
					valid = false
					break
				}
				pl, pr := p(left), p(right)
				if pl == 0 || pr == 0 {
					valid = false
					break
				}
				if m := math.Log(p(g) / (pl * pr)); m < mi {
					mi = m
				}
			}
			if !valid || mi < cfg.MinMI {
				continue
			}
			s.units[g] = &Unit{Text: g, Terms: terms, Freq: ngramFreq[g]}
			mis[g] = mi
			if mi > maxMI {
				maxMI = mi
			}
		}
	}
	for _, u := range s.units {
		if len(u.Terms) > 1 && maxMI > 0 {
			u.Score = mis[u.Text] / maxMI
		}
	}
	s.buildIndex(nil) // a vocabulary of its own, independent of the log's
	return s, mis
}

// TestDifferentialExtractVsReference mines the same generated query log with
// the interned packed-key Extract and the string-keyed reference and
// requires identical unit inventories, field for field.
func TestDifferentialExtractVsReference(t *testing.T) {
	w := world.New(world.Config{Seed: 91, VocabSize: 1500, NumTopics: 8, NumConcepts: 250})
	l := querylog.Generate(w, querylog.Config{Seed: 92})
	for _, cfg := range []Config{{}, {MaxLen: 4, MinMI: 1.0}, {MinFreq: 2}} {
		got := Extract(l, cfg)
		want, _ := referenceExtract(l, cfg)
		if len(got.units) != len(want.units) {
			t.Fatalf("cfg %+v: %d units, reference has %d", cfg, len(got.units), len(want.units))
		}
		if len(got.units) == 0 {
			t.Fatalf("cfg %+v: no units — test is vacuous", cfg)
		}
		for text, wu := range want.units {
			gu := got.units[text]
			if gu == nil {
				t.Fatalf("cfg %+v: unit %q missing", cfg, text)
			}
			if !reflect.DeepEqual(*gu, *wu) {
				t.Fatalf("cfg %+v: unit %q differs:\n got %+v\nwant %+v", cfg, text, *gu, *wu)
			}
		}
	}
}

// TestDifferentialTrieVsReference scans a generated news corpus against a
// query-log-mined unit set with both scanners and requires bit-identical
// match streams.
func TestDifferentialTrieVsReference(t *testing.T) {
	w := world.New(world.Config{Seed: 81, VocabSize: 1500, NumTopics: 8, NumConcepts: 250})
	l := querylog.Generate(w, querylog.Config{Seed: 82})
	s := Extract(l, Config{})
	docs := newsgen.Generate(w, newsgen.Config{Seed: 83, NumStories: 30, MinSentences: 5, MaxSentences: 15})
	matched := 0
	for _, doc := range docs {
		tokens := textproc.Words(doc.Text)
		ids := s.Vocab().AppendIDs(nil, tokens)
		got := s.FindInIDs(ids, nil)
		want := referenceFind(s, tokens)
		if len(got) == 0 {
			got = nil // FindInIDs with an empty dst returns a non-nil empty slice
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trie and reference scanner disagree on story %d:\n got %+v\nwant %+v", doc.ID, got, want)
		}
		matched += len(got)
	}
	if matched == 0 {
		t.Fatal("differential corpus produced no matches — test is vacuous")
	}
}
