// Command experiments regenerates every table and figure of the paper's
// evaluation (§V, §VI) against the synthetic world and prints measured
// values next to the paper's published numbers.
//
// Usage:
//
//	experiments [-run all|table2|table3|table4|table5|table6|fig1|fig2|fig3|production|datastats|framework|featureselection] [-seed N] [-scale small|paper]
//
// The §IV-C sense clustering and the §VIII online adaptation are
// extensions, not paper tables: go run ./examples/senses and
// go run ./examples/trending.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"contextrank"
	"contextrank/internal/core"
	"contextrank/internal/editorial"
	"contextrank/internal/experiments"
	"contextrank/internal/features"
	"contextrank/internal/ranksvm"
	"contextrank/internal/relevance"
)

// runNames are the values -run takes, as the usage line lists them.
var runNames = []string{"all", "table2", "table3", "table4", "table5", "table6", "fig1", "fig2", "fig3",
	"production", "datastats", "framework", "featureselection"}

// errUnknownRun is run's refusal of a -run value outside runNames, made
// before anything is built; main exits 2 on it, as on any usage error.
var errUnknownRun = errors.New("unknown -run value")

func main() {
	which := flag.String("run", "all", "which experiment to run: "+strings.Join(runNames, "|"))
	seed := flag.Int64("seed", 42, "master seed")
	scale := flag.String("scale", "paper", "world scale: small|paper")
	flag.Parse()

	var cfg core.Config
	switch *scale {
	case "small":
		cfg = contextrank.SmallConfig(*seed)
	case "paper":
		cfg = contextrank.PaperConfig(*seed)
	default:
		fmt.Fprintf(os.Stderr, "unknown scale %q\n", *scale)
		os.Exit(2)
	}
	if err := run(os.Stdout, cfg, *scale, *which); err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		if errors.Is(err, errUnknownRun) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// run builds the system and prints the selected experiments to w. Every
// line but the §VI "throughput:" one is a pure function of cfg
// (TestSmallScaleGolden).
func run(w io.Writer, cfg core.Config, scale, which string) error {
	if !slices.Contains(runNames, which) {
		return fmt.Errorf("%w %q; valid: %s", errUnknownRun, which, strings.Join(runNames, "|"))
	}
	seed := cfg.Seed
	fmt.Fprintf(w, "Building system (seed=%d, scale=%s)...\n", seed, scale)
	sys := contextrank.Build(cfg)
	s := sys.Internal()
	st := s.DataStats()
	fmt.Fprintf(w, "world: %d concepts, %d queries, %d corpus docs; click data: %d/%d stories kept, %d concepts, %d clicks, %d windows\n\n",
		len(s.World.Concepts), s.Log.NumDistinct(), s.Engine.NumDocs(),
		st.CleanStories, st.RawStories, st.Concepts, st.Clicks, st.Windows)

	want := func(name string) bool { return which == "all" || which == name }
	folds := 5

	if want("datastats") {
		fmt.Fprintln(w, "== §V-A.1 data statistics (paper: 870 stories, 6420 concepts, 16549 clicks, 947 windows)")
		fmt.Fprintf(w, "measured: %d stories, %d concepts, %d clicks, %d windows\n\n",
			st.CleanStories, st.Concepts, st.Clicks, st.Windows)
	}

	if want("table2") {
		top, bottom := experiments.Table2(s, 3)
		fmt.Fprintln(w, "== Table II: relevant-keyword score summations (paper: specific ≈ 9000-9500, low-quality ≈ 1500-2100)")
		for _, r := range top {
			fmt.Fprintf(w, "  %-45s %10.1f\n", r.Concept, r.Summation)
		}
		fmt.Fprintln(w, "  ...")
		for _, r := range bottom {
			fmt.Fprintf(w, "  %-45s %10.1f\n", r.Concept, r.Summation)
		}
		fmt.Fprintln(w)
	}

	if want("table3") || want("fig1") {
		t3, err := experiments.Table3(s, folds, seed)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "== Table III: weighted error rates, interestingness features (paper: random 50.01, concept-vector 30.22, all 23.69;")
		fmt.Fprintln(w, "   ablations: -QueryLogs 24.50, -Taxonomy 24.47, -SearchResults 23.80, -Other 23.78, -TextBased 23.73)")
		fmt.Fprintf(w, "  %v\n  %v\n  %v\n", t3.Random, t3.ConceptVector, t3.AllFeatures)
		for g := features.Group(0); g < features.NumGroups; g++ {
			fmt.Fprintf(w, "  %v\n", t3.Ablations[g])
		}
		fmt.Fprintln(w)
		if want("fig1") {
			fmt.Fprint(w, "== Figure 1: NDCG@{1,2,3}, interestingness model vs baselines — see ndcg columns above\n\n")
		}
	}

	if want("table4") || want("fig2") {
		t4, err := experiments.Table4(s, folds, seed)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "== Table IV: relevance-score-only ranking (paper: prisma 32.32, suggestions 31.23, snippets 24.86)")
		fmt.Fprintf(w, "  %v\n  %v\n", t4.Random, t4.ConceptVector)
		for _, r := range []relevance.Resource{relevance.Prisma, relevance.Suggestions, relevance.Snippets} {
			fmt.Fprintf(w, "  %v\n", t4.ByResource[r])
		}
		fmt.Fprintln(w)
		if want("fig2") {
			fmt.Fprint(w, "== Figure 2: NDCG@{1,2,3} for relevance-score ranking — see ndcg columns above\n\n")
		}
	}

	if want("table5") || want("fig3") {
		t5, err := experiments.Table5(s, folds, seed)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "== Table V: all features (paper: random 50.01, concept-vector 30.22, interestingness 23.69, relevance 24.86, combined 18.66)")
		fmt.Fprintf(w, "  %v\n  %v\n  %v\n  %v\n  %v\n  %v\n",
			t5.Random, t5.ConceptVector, t5.BestInterest, t5.BestRelevance, t5.Combined, t5.CombinedRBF)
		// Paired bootstrap: is the combined model's gain over the
		// interestingness-only model significant?
		groups := s.Dataset([]relevance.Resource{relevance.Snippets})
		sig, err := experiments.CompareMethods(groups,
			&core.LearnedMethod{UseRelevance: true, Resource: relevance.Snippets, Options: ranksvm.Options{Seed: seed}},
			&core.LearnedMethod{Options: ranksvm.Options{Seed: seed}},
			folds, seed)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  combined vs interestingness-only: Δ weighted error %+.2f points, 95%% CI [%+.2f, %+.2f], p=%.3f\n\n",
			100*sig.DeltaObserved, 100*sig.CILow, 100*sig.CIHigh, sig.PValue)
		if want("fig3") {
			fmt.Fprint(w, "== Figure 3: NDCG@{1,2,3} with all features — see ndcg columns above\n\n")
		}
	}

	if want("table6") {
		t6, err := experiments.Table6(s, experiments.EditorialConfig{Seed: seed})
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "== Table VI: editorial study (paper: ranked algorithm raises Very-Interesting 32.6→45.4 news / 35.9→41.6 answers,")
		fmt.Fprintln(w, "   Very-Relevant 53.0→66.3 news / 50.3→61.3 answers; overall bad terms 23.3% → 12.8%)")
		p := func(label string, t editorial.Tally) {
			fmt.Fprintf(w, "  %-28s very-int=%5.1f%% some-int=%5.1f%% not-int=%5.1f%% | very-rel=%5.1f%% some-rel=%5.1f%% not-rel=%5.1f%%\n",
				label,
				t.InterestPct(editorial.Very), t.InterestPct(editorial.Somewhat), t.InterestPct(editorial.Not),
				t.RelevancePct(editorial.Very), t.RelevancePct(editorial.Somewhat), t.RelevancePct(editorial.Not))
		}
		p("News / Concept Vector", t6.NewsCV)
		p("News / Ranking Algorithm", t6.NewsRanked)
		p("Answers / Concept Vector", t6.AnswersCV)
		p("Answers / Ranking Algorithm", t6.AnswersRanked)
		badBefore := (t6.NewsCV.BadPct() + t6.AnswersCV.BadPct()) / 2
		badAfter := (t6.NewsRanked.BadPct() + t6.AnswersRanked.BadPct()) / 2
		fmt.Fprintf(w, "  overall bad terms: %.1f%% -> %.1f%% (paper: 23.3%% -> 12.8%%)\n", badBefore, badAfter)
		fmt.Fprintf(w, "  judge panel agreement (Cohen's kappa): interest %.2f, relevance %.2f\n\n",
			t6.InterestKappa, t6.RelevanceKappa)
	}

	if want("production") {
		p, err := experiments.ProductionExperiment(s, 3, 400, seed+500)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "== §V-C production experiment (paper: views -52.5%, clicks -2.0%, CTR +100.1%)")
		fmt.Fprintf(w, "  views %+.1f%%, clicks %+.1f%%, CTR %+.1f%%\n\n",
			p.ViewsChangePct(), p.ClicksChangePct(), p.CTRChangePct())
	}

	if want("framework") {
		if err := runFramework(w, sys, seed); err != nil {
			return err
		}
	}

	if want("featureselection") {
		if err := runFeatureSelection(w, s, seed); err != nil {
			return err
		}
	}
	return nil
}
