package main

import (
	"flag"
	"fmt"
	"io"
	"sort"

	"contextrank"
	"contextrank/internal/relevance"
)

// inspect shows why the ranker scores a concept the way it does: its
// interestingness features (Table I), its relevant keywords per resource
// (§IV-B) with the Table II summation. -list N prints the hottest concepts
// to pick from.
func inspect(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("offline inspect", flag.ContinueOnError)
	fs.SetOutput(stderr)
	concept := fs.String("concept", "", "concept to inspect")
	list := fs.Int("list", 0, "list the N most interesting concepts and exit")
	resource := fs.String("resource", "all", "mining resource: snippets|prisma|suggestions|all")
	seed := fs.Int64("seed", 42, "world seed")
	if fs.Parse(args) != nil {
		return 2
	}
	// Usage errors first: building the world takes a moment.
	if *list <= 0 && *concept == "" {
		fmt.Fprintln(stderr, "need -concept or -list; try -list 20")
		return 2
	}
	var resources []relevance.Resource
	for _, r := range []relevance.Resource{relevance.Snippets, relevance.Prisma, relevance.Suggestions} {
		if *resource == "all" || *resource == r.String() {
			resources = append(resources, r)
		}
	}
	if len(resources) == 0 {
		fmt.Fprintf(stderr, "unknown resource %q\n", *resource)
		return 2
	}

	sys := contextrank.Build(contextrank.SmallConfig(*seed))
	inner := sys.Internal()

	if *list > 0 {
		concepts := append([]contextrank.Concept(nil), sys.Concepts()...)
		sort.Slice(concepts, func(i, j int) bool { return concepts[i].Interest > concepts[j].Interest })
		if *list < len(concepts) {
			concepts = concepts[:*list]
		}
		for _, c := range concepts {
			fmt.Fprintf(stdout, "%-40q interest=%.2f spec=%.2f quality=%.2f type=%s\n",
				c.Name, c.Interest, c.Specificity, c.Quality, c.Type)
		}
		return 0
	}

	c := inner.World.ConceptByName(*concept)
	if c == nil {
		fmt.Fprintf(stderr, "concept %q not in this world (seed %d); use -list to browse\n", *concept, *seed)
		return 1
	}

	fmt.Fprintf(stdout, "concept %q\n", c.Name)
	fmt.Fprintf(stdout, "  latent: interest=%.2f specificity=%.2f quality=%.2f topic=%d ambiguous=%v\n",
		c.Interest, c.Specificity, c.Quality, c.Topic, c.Ambiguous())

	f := inner.Fields(c.Name)
	fmt.Fprintln(stdout, "  interestingness features (Table I):")
	fmt.Fprintf(stdout, "    freq_exact=%.2f freq_phrase_contained=%.2f unit_score=%.3f\n",
		f.FreqExact, f.FreqPhraseContained, f.UnitScore)
	fmt.Fprintf(stdout, "    searchengine_phrase=%.2f concept_size=%.0f number_of_chars=%.0f\n",
		f.SearchEnginePhrase, f.ConceptSize, f.NumberOfChars)
	fmt.Fprintf(stdout, "    subconcepts=%.0f high_level_type=%s wiki_word_count=%.2f\n",
		f.Subconcepts, f.HighLevelType, f.WikiWordCount)

	for _, r := range resources {
		kws := inner.Miner.Mine(c.Name, r)
		fmt.Fprintf(stdout, "  %s keywords: %d terms, summation %.1f (Table II)\n", r, len(kws), kws.Sum())
		for i, e := range kws {
			if i == 8 {
				break
			}
			fmt.Fprintf(stdout, "    %-24s %8.2f\n", e.Term, e.Weight)
		}
	}
	return 0
}
