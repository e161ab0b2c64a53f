// Senses: the paper's §IV-C discussion of ambiguous concepts ("such as
// Madonna or Jaguar"). Clustering an ambiguous concept's result snippets
// into senses and scoring a context against its best-matching sense
// recovers coverage the diluted global keyword pack misses. The example
// prints that coverage over the click corpus's ambiguous mentions, then the
// senses of the ambiguous concept the corpus mentions most.
package main

import (
	"flag"
	"fmt"
	"strings"

	"contextrank"
	"contextrank/examples/senses/senses"
)

func main() {
	seed := flag.Int64("seed", 42, "world seed")
	flag.Parse()

	s := contextrank.Build(contextrank.SmallConfig(*seed)).Internal()
	fmt.Println("== §IV-C ambiguous concepts (paper: 'there would be some good local clusters ... the scores can be boosted')")
	global, sense, n := senses.Experiment(s, 2)
	if n == 0 {
		fmt.Println("  no ambiguous mentions in the click corpus")
		return
	}
	fmt.Printf("  %d ambiguous relevant mentions: global-pack coverage %.3f, best-sense coverage %.3f (%+.0f%%)\n\n",
		n, global, sense, 100*(sense-global)/global)

	mentions := make(map[string]int)
	for _, wg := range s.Groups {
		for _, e := range wg.Entities {
			if c := e.Concept; e.Relevant && c.Ambiguous() && !c.LowQuality() {
				mentions[c.Name]++
			}
		}
	}
	top := ""
	for name, k := range mentions {
		if k > mentions[top] || k == mentions[top] && name < top {
			top = name
		}
	}
	ss := senses.Mine(s.Engine, s.Miner, top, 2, 0)
	fmt.Printf("%q: %d relevant mentions, %d senses\n", top, mentions[top], len(ss))
	for i, sn := range ss {
		var terms []string
		for _, e := range sn.Keywords[:min(5, len(sn.Keywords))] {
			terms = append(terms, e.Term)
		}
		fmt.Printf("  sense %d share=%.2f top terms: %s\n", i, sn.Share, strings.Join(terms, " "))
	}
}
