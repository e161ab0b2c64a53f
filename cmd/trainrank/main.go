// Command trainrank runs the offline training pipeline: generate the world
// and click data, cross-validate the ranking methods, print the metric
// table, and optionally save the trained model.
//
// Usage:
//
//	trainrank -scale small -folds 5 -o model.json
package main

import (
	"flag"
	"fmt"
	"os"

	"contextrank"
	"contextrank/internal/core"
	"contextrank/internal/ranksvm"
	"contextrank/internal/relevance"
)

func main() {
	seed := flag.Int64("seed", 42, "master seed")
	scale := flag.String("scale", "small", "world scale: small|paper")
	folds := flag.Int("folds", 5, "cross-validation folds")
	out := flag.String("o", "", "write the trained model (JSON) to this file")
	kernel := flag.String("kernel", "linear", "ranking SVM kernel: linear|rbf")
	flag.Parse()

	var cfg contextrank.Config
	switch *scale {
	case "small":
		cfg = contextrank.SmallConfig(*seed)
	case "paper":
		cfg = contextrank.PaperConfig(*seed)
	default:
		fmt.Fprintf(os.Stderr, "unknown scale %q\n", *scale)
		os.Exit(2)
	}

	fmt.Println("building system...")
	sys := contextrank.Build(cfg)
	st := sys.DataStats()
	fmt.Printf("click data: %d stories, %d concepts, %d clicks, %d windows\n\n",
		st.CleanStories, st.Concepts, st.Clicks, st.Windows)

	opts := ranksvm.Options{Seed: *seed}
	if *kernel == "rbf" {
		opts.Kernel = ranksvm.RBF
		opts.MaxPairsPerGroup = 10
	}

	inner := sys.Internal()
	groups := inner.Dataset([]relevance.Resource{relevance.Snippets})
	methods := []core.Method{
		&core.RandomMethod{Seed: *seed},
		&core.ConceptVectorMethod{Scorer: inner.Baseline},
		&core.LearnedMethod{Options: opts},
		&core.RelevanceMethod{Resource: relevance.Snippets},
		&core.LearnedMethod{UseRelevance: true, Resource: relevance.Snippets, Options: opts},
	}
	for _, m := range methods {
		res, err := core.CrossValidate(groups, m, *folds, *seed, 1)
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		fmt.Println(" ", res)
	}

	if *out != "" {
		ranker, err := sys.TrainRanker()
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		if err := ranker.SaveModel(f); err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		fmt.Printf("\nmodel written to %s\n", *out)
	}
}
