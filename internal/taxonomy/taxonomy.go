// Package taxonomy implements the editorially-reviewed entity dictionaries
// of Contextual Shortcuts: "categorized terms and phrases according to a
// pre-defined taxonomy ... a handful major types, such as people,
// organizations, places, events, animals, products, and each of these major
// types contains a large number of subtypes". Named entities are detected by
// dictionary lookup; ambiguous terms ("jaguar") carry multiple entries and
// are disambiguated downstream. Location entries carry geo metadata in their
// data-packs.
package taxonomy

import (
	"math/rand"
	"sort"
	"strings"

	"contextrank/internal/match"
	"contextrank/internal/world"
)

// Entry is one dictionary record for a phrase under one type.
type Entry struct {
	// Phrase is the lower-case dictionary phrase.
	Phrase string
	// Type is the major taxonomy type.
	Type world.EntityType
	// Subtype refines the type ("actor", "city", ...).
	Subtype string
	// Geo carries longitude/latitude metadata for places ("In the case of
	// locations, the meta-data contained geo-location information").
	Geo *GeoPoint
}

// GeoPoint is a longitude/latitude pair.
type GeoPoint struct {
	Lon, Lat float64
}

// Dictionary is the in-memory data-pack of editorial entries, pre-loaded
// "to allow for high-performance entity detection". buildIndex compiles the
// phrases into a token-trie matcher over an interned vocabulary so the
// serving path scans a document in one pass with zero per-probe
// allocations (DESIGN.md §10).
type Dictionary struct {
	entries map[string][]Entry // phrase -> entries (multiple when ambiguous)
	vocab   *match.Vocab
	matcher *match.Matcher
	pats    []dictPattern // pattern id -> payload
}

// dictPattern is the per-phrase payload resolved by a trie match. Terms are
// split once at buildIndex time; nothing on the match path re-splits a
// phrase (guarded by TestFindInIDsZeroAlloc).
type dictPattern struct {
	phrase  string
	terms   []string
	entries []Entry
}

// Build constructs the dictionary from the world's typed concepts. An
// ambiguous concept (two senses) receives a second entry under a different
// type, mirroring "it is possible that a named entity can be a member of
// multiple types, such as the term jaguar".
func Build(w *world.World, seed int64) *Dictionary {
	rng := rand.New(rand.NewSource(seed))
	d := &Dictionary{entries: make(map[string][]Entry)}
	for i := range w.Concepts {
		c := &w.Concepts[i]
		if c.Type == world.TypeNone {
			continue
		}
		e := Entry{Phrase: c.Name, Type: c.Type, Subtype: c.Subtype}
		if c.Type == world.TypePlace {
			e.Geo = &GeoPoint{
				Lon: -180 + float64(360*rng.Float64()),
				Lat: -90 + float64(180*rng.Float64()),
			}
		}
		d.add(e)
		if c.Ambiguous() {
			alt := altType(c.Type)
			d.add(Entry{Phrase: c.Name, Type: alt, Subtype: firstSubtype(alt)})
		}
	}
	d.buildIndex()
	return d
}

// altType picks a deterministic different type for an ambiguous entry.
func altType(t world.EntityType) world.EntityType {
	if t == world.TypeAnimal {
		return world.TypeProduct // the jaguar case
	}
	return world.TypeAnimal
}

func firstSubtype(t world.EntityType) string {
	switch t {
	case world.TypePerson:
		return "actor"
	case world.TypePlace:
		return "city"
	case world.TypeOrganization:
		return "company"
	case world.TypeProduct:
		return "gadget"
	case world.TypeEvent:
		return "festival"
	case world.TypeAnimal:
		return "mammal"
	}
	return ""
}

func (d *Dictionary) add(e Entry) {
	d.entries[e.Phrase] = append(d.entries[e.Phrase], e)
}

// buildIndex compiles the loaded phrases into the trie matcher. Phrases are
// split into terms exactly once, here; pattern ids are assigned in sorted
// phrase order so two dictionaries with the same entries compile identical
// matchers regardless of map iteration order.
func (d *Dictionary) buildIndex() {
	phrases := make([]string, 0, len(d.entries))
	for phrase := range d.entries {
		phrases = append(phrases, phrase)
	}
	sort.Strings(phrases)
	b := match.NewBuilder(nil)
	d.pats = make([]dictPattern, 0, len(phrases))
	for _, phrase := range phrases {
		terms := strings.Fields(phrase)
		if len(terms) == 0 {
			continue
		}
		if id := b.Add(terms); id != len(d.pats) {
			// Phrases are unique map keys, so ids are dense and in order.
			panic("taxonomy: non-dense pattern id")
		}
		d.pats = append(d.pats, dictPattern{phrase: phrase, terms: terms, entries: d.entries[phrase]})
	}
	d.matcher = b.Build()
	d.vocab = b.Vocab()
}

// Vocab exposes the interned phrase vocabulary so the detection pipeline
// can map a document's tokens to ids once per document.
func (d *Dictionary) Vocab() *match.Vocab { return d.vocab }

// HighLevelType returns the major type of the phrase's first entry, or
// TypeNone — this backs the paper's interestingness feature (8)
// high_level_type.
func (d *Dictionary) HighLevelType(phrase string) world.EntityType {
	es := d.entries[phrase]
	if len(es) == 0 {
		return world.TypeNone
	}
	return es[0].Type
}

// Match is one dictionary phrase occurrence in a token sequence.
type Match struct {
	// Phrase is the matched dictionary phrase.
	Phrase string
	// Entries are the dictionary entries for the phrase.
	Entries []Entry
	// Start and End are token indexes ([Start,End)).
	Start, End int
}

// FindInIDs scans interned token ids (from Vocab().AppendIDs) and appends
// the matches to dst, returning it. With a pre-sized dst the scan performs
// zero allocations.
//
//kw:hotpath
func (d *Dictionary) FindInIDs(ids []uint32, dst []Match) []Match {
	for i := 0; i < len(ids); i++ {
		if p, end, ok := d.matcher.LongestAt(ids, i); ok {
			pat := &d.pats[p]
			dst = append(dst, Match{Phrase: pat.phrase, Entries: pat.entries, Start: i, End: end})
		}
	}
	return dst
}

// entityTypeRange bounds the per-type vote arrays used by disambiguation
// (EntityType values are a small closed enum; see world.EntityType).
const entityTypeRange = int(world.TypeAnimal) + 1

// DisambiguateIDs selects the best entry for a match given the surrounding
// context, as interned ids. The heuristic scores each entry's type by
// co-occurrence of type-indicative dictionary neighbours: entries whose type
// appears more among unambiguous dictionary matches in the context win; on a
// tie the first (editorially primary) entry is kept. It allocates nothing
// and returns a pointer into the dictionary's entry table, which is
// immutable after load — callers must treat it as read-only.
func (d *Dictionary) DisambiguateIDs(m Match, ctx []uint32) *Entry {
	if len(m.Entries) == 1 {
		return &m.Entries[0]
	}
	var votes [entityTypeRange]int
	for i := 0; i < len(ctx); i++ {
		if p, _, ok := d.matcher.LongestAt(ctx, i); ok {
			// Only unambiguous neighbours vote; the ambiguous phrase under
			// disambiguation has ≥ 2 entries and so can never vote for
			// itself.
			if es := d.pats[p].entries; len(es) == 1 {
				votes[es[0].Type]++
			}
		}
	}
	best := 0
	bestVotes := votes[m.Entries[0].Type]
	for i := 1; i < len(m.Entries); i++ {
		if v := votes[m.Entries[i].Type]; v > bestVotes {
			best, bestVotes = i, v
		}
	}
	return &m.Entries[best]
}
