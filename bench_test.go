package contextrank

// One benchmark per table and figure of the paper's evaluation section,
// plus the §VI framework measurements and the DESIGN.md ablations. Each
// benchmark regenerates its experiment against the synthetic world and
// reports the headline quantity as a custom metric (error rates in %, NDCG
// ×1000), so `go test -bench .` reproduces the paper's result shapes.
//
// Absolute wall-clock numbers measure this reproduction, not the paper's
// 2007 testbed; the *metrics* are the comparison target (see
// EXPERIMENTS.md).

import (
	"runtime"
	"testing"

	"contextrank/internal/clicksim"
	"contextrank/internal/conceptvec"
	"contextrank/internal/core"
	"contextrank/internal/eval"
	"contextrank/internal/experiments"
	"contextrank/internal/features"
	"contextrank/internal/framework"
	"contextrank/internal/newsgen"
	"contextrank/internal/ranksvm"
	"contextrank/internal/relevance"
)

// benchSystem caches the built system across benchmarks (building takes a
// few seconds and every benchmark shares it read-only except the lazily
// mined relevance stores, which are cached internally too).
var benchSys *System

func benchSystem(b *testing.B) *core.System {
	b.Helper()
	if benchSys == nil {
		benchSys = Build(SmallConfig(42))
	}
	return benchSys.Internal()
}

func reportResult(b *testing.B, r experiments.Result) {
	b.ReportMetric(100*r.WeightedErrorRate, "wErr%")
	b.ReportMetric(100*r.ErrorRate, "plainErr%")
	b.ReportMetric(1000*r.NDCG[1], "ndcg@1e-3")
	b.ReportMetric(1000*r.NDCG[3], "ndcg@3e-3")
}

// BenchmarkTable2_KeywordSummations regenerates Table II: the summations of
// the top-100 relevant-keyword scores, whose spread separates specific
// concepts from low-quality phrases (paper: ~9000+ vs ~1500-2100).
func BenchmarkTable2_KeywordSummations(b *testing.B) {
	s := benchSystem(b)
	for i := 0; i < b.N; i++ {
		top, bottom := experiments.Table2(s, 3)
		b.ReportMetric(top[0].Summation, "topSum")
		b.ReportMetric(bottom[len(bottom)-1].Summation, "bottomSum")
		b.ReportMetric(top[0].Summation/bottom[len(bottom)-1].Summation, "ratio")
	}
}

// BenchmarkTable3_InterestingnessErrorRates regenerates Table III: weighted
// error rates of the interestingness-feature model and its baselines
// (paper: random 50.01, concept-vector 30.22, all features 23.69).
func BenchmarkTable3_InterestingnessErrorRates(b *testing.B) {
	s := benchSystem(b)
	for i := 0; i < b.N; i++ {
		t3, err := experiments.Table3(s, 5, 42)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*t3.Random.WeightedErrorRate, "random%")
		b.ReportMetric(100*t3.ConceptVector.WeightedErrorRate, "conceptVec%")
		b.ReportMetric(100*t3.AllFeatures.WeightedErrorRate, "allFeatures%")
		b.ReportMetric(100*t3.Ablations[features.GroupQueryLogs].WeightedErrorRate, "minusQueryLogs%")
	}
}

// BenchmarkTable4_RelevanceErrorRates regenerates Table IV: ranking by the
// pre-mined relevance score only (paper: prisma 32.32, suggestions 31.23,
// snippets 24.86).
func BenchmarkTable4_RelevanceErrorRates(b *testing.B) {
	s := benchSystem(b)
	for i := 0; i < b.N; i++ {
		t4, err := experiments.Table4(s, 5, 42)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*t4.ByResource[relevance.Snippets].WeightedErrorRate, "snippets%")
		b.ReportMetric(100*t4.ByResource[relevance.Prisma].WeightedErrorRate, "prisma%")
		b.ReportMetric(100*t4.ByResource[relevance.Suggestions].WeightedErrorRate, "suggestions%")
	}
}

// BenchmarkTable5_CombinedErrorRates regenerates Table V: all
// interestingness features plus the snippet relevance score (paper:
// combined 18.66 vs interestingness-only 23.69 vs baseline 30.22).
func BenchmarkTable5_CombinedErrorRates(b *testing.B) {
	s := benchSystem(b)
	for i := 0; i < b.N; i++ {
		t5, err := experiments.Table5(s, 5, 42)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*t5.Combined.WeightedErrorRate, "combined%")
		b.ReportMetric(100*t5.BestInterest.WeightedErrorRate, "interest%")
		b.ReportMetric(100*t5.ConceptVector.WeightedErrorRate, "conceptVec%")
	}
}

// BenchmarkFigure1_NDCGInterestingness regenerates Figure 1: NDCG@{1,2,3}
// for random / concept-vector / interestingness model.
func BenchmarkFigure1_NDCGInterestingness(b *testing.B) {
	s := benchSystem(b)
	for i := 0; i < b.N; i++ {
		t3, err := experiments.Table3(s, 5, 42)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(1000*t3.AllFeatures.NDCG[1], "model@1e-3")
		b.ReportMetric(1000*t3.AllFeatures.NDCG[3], "model@3e-3")
		b.ReportMetric(1000*t3.Random.NDCG[1], "random@1e-3")
	}
}

// BenchmarkFigure2_NDCGRelevance regenerates Figure 2: NDCG@{1,2,3} for
// relevance-score-only ranking per mining resource.
func BenchmarkFigure2_NDCGRelevance(b *testing.B) {
	s := benchSystem(b)
	for i := 0; i < b.N; i++ {
		t4, err := experiments.Table4(s, 5, 42)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(1000*t4.ByResource[relevance.Snippets].NDCG[1], "snippets@1e-3")
		b.ReportMetric(1000*t4.ByResource[relevance.Prisma].NDCG[1], "prisma@1e-3")
	}
}

// BenchmarkFigure3_NDCGCombined regenerates Figure 3: NDCG@{1,2,3} with all
// features.
func BenchmarkFigure3_NDCGCombined(b *testing.B) {
	s := benchSystem(b)
	for i := 0; i < b.N; i++ {
		t5, err := experiments.Table5(s, 5, 42)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(1000*t5.Combined.NDCG[1], "combined@1e-3")
		b.ReportMetric(1000*t5.Combined.NDCG[3], "combined@3e-3")
	}
}

// BenchmarkTable6_EditorialStudy regenerates the §V-B editorial study
// (paper: Very-Interesting 32.6→45.4 on news; bad terms 23.3%→12.8%).
func BenchmarkTable6_EditorialStudy(b *testing.B) {
	s := benchSystem(b)
	for i := 0; i < b.N; i++ {
		t6, err := experiments.Table6(s, experiments.EditorialConfig{Seed: 42, NewsDocs: 100, AnswersDocs: 200})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(t6.NewsRanked.InterestPct(0), "newsVeryInt%")
		b.ReportMetric(t6.NewsCV.InterestPct(0), "newsVeryIntCV%")
		b.ReportMetric((t6.NewsRanked.BadPct()+t6.AnswersRanked.BadPct())/2, "badRanked%")
		b.ReportMetric((t6.NewsCV.BadPct()+t6.AnswersCV.BadPct())/2, "badCV%")
	}
}

// BenchmarkRealWorld_ProductionCTR regenerates §V-C: annotating only the
// top-3 ranked entities (paper: views −52.5%, clicks −2.0%, CTR +100.1%).
func BenchmarkRealWorld_ProductionCTR(b *testing.B) {
	s := benchSystem(b)
	for i := 0; i < b.N; i++ {
		p, err := experiments.ProductionExperiment(s, 3, 200, 42)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(p.ViewsChangePct(), "views%")
		b.ReportMetric(p.ClicksChangePct(), "clicks%")
		b.ReportMetric(p.CTRChangePct(), "ctr%")
	}
}

// buildRuntime assembles the §VI production runtime for the framework
// benchmarks.
func buildRuntime(b *testing.B) (*framework.Runtime, []newsgen.Story) {
	b.Helper()
	s := benchSystem(b)
	learned := &core.LearnedMethod{UseRelevance: true, Resource: relevance.Snippets, Options: ranksvm.Options{Seed: 42}}
	if err := learned.Fit(s.Dataset([]relevance.Resource{relevance.Snippets})); err != nil {
		b.Fatal(err)
	}
	rt := s.RuntimeTables().Runtime(learned.Model())
	docs := newsgen.Generate(s.World, newsgen.Config{Seed: 4242, NumStories: 50, MinSentences: 12, MaxSentences: 24})
	return rt, docs
}

// BenchmarkFrameworkRanker measures the online annotate path (§VI: the
// paper's ranker processed 2.4 MB/s on 2007 hardware).
func BenchmarkFrameworkRanker(b *testing.B) {
	rt, docs := buildRuntime(b)
	total := 0
	for _, d := range docs {
		total += len(d.Text)
	}
	b.SetBytes(int64(total))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for d := range docs {
			rt.Annotate(docs[d].Text, 3)
		}
	}
}

// BenchmarkAnnotate measures the full online annotate path per document —
// the detection + ranking hot path whose allocs/op the performance
// contract (DESIGN.md §10) guards in CI. Unlike BenchmarkFrameworkRanker
// (which reports MB/s over a corpus sweep), this benchmark reports per-call
// cost so allocation regressions are visible directly.
func BenchmarkAnnotate(b *testing.B) {
	rt, docs := buildRuntime(b)
	// One untimed pass first, so the pooled scratch has grown to fit the
	// documents and the timed loop reads the steady state.
	for d := range docs {
		rt.Annotate(docs[d].Text, 3)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt.Annotate(docs[i%len(docs)].Text, 3)
	}
}

// BenchmarkFrameworkStemmer measures the stemmer stage alone (§VI: paper
// 7.9 MB/s).
func BenchmarkFrameworkStemmer(b *testing.B) {
	rt, docs := buildRuntime(b)
	total := 0
	for _, d := range docs {
		total += len(d.Text)
	}
	b.SetBytes(int64(total))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for d := range docs {
			rt.StemDoc(docs[d].Text)
		}
	}
}

// BenchmarkNewRuntime measures assembling the runtime from its tables,
// which is building its word table: every stop word, detection vocabulary
// word and self-stemming TID, stemmed once.
func BenchmarkNewRuntime(b *testing.B) {
	rt, _ := buildRuntime(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		framework.NewRuntime(rt.Pipeline, rt.Interest, rt.Packs, rt.Model)
	}
}

// BenchmarkFrameworkGolomb compares the keyword-pack footprint raw vs the
// Golomb form the bundle stores (DESIGN.md ablation 6).
func BenchmarkFrameworkGolomb(b *testing.B) {
	s := benchSystem(b)
	packs := framework.BuildKeywordPacks(s.RelevanceStore(relevance.Snippets))
	for i := 0; i < b.N; i++ {
		compressed := packs.GolombBytes()
		b.ReportMetric(float64(packs.TotalBytes()), "rawBytes")
		b.ReportMetric(float64(compressed), "golombBytes")
		b.ReportMetric(100*float64(compressed)/float64(packs.TotalBytes()), "ratio%")
	}
}

// --- DESIGN.md ablation benches ---

// BenchmarkAblationWeightedVsPlain compares the weighted and unweighted
// error-rate metrics on the same baseline ranking (DESIGN.md ablation 1):
// the weighted metric credits the baseline for getting the *important*
// pairs right.
func BenchmarkAblationWeightedVsPlain(b *testing.B) {
	s := benchSystem(b)
	groups := s.Dataset(nil)
	m := &experiments.ConceptVectorMethod{Scorer: experiments.Baseline(s)}
	for i := 0; i < b.N; i++ {
		res, err := experiments.CrossValidate(groups, m, 5, 42)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*res.WeightedErrorRate, "weighted%")
		b.ReportMetric(100*res.ErrorRate, "plain%")
	}
}

// BenchmarkAblationBubbleUp compares the concept-vector baseline with and
// without the multi-term bubble-up step (DESIGN.md ablation 2).
func BenchmarkAblationBubbleUp(b *testing.B) {
	s := benchSystem(b)
	groups := s.Dataset(nil)
	with := &experiments.ConceptVectorMethod{Scorer: experiments.Baseline(s)}
	without := &experiments.ConceptVectorMethod{Scorer: conceptvec.New(
		s.Engine.IDF, s.Units, conceptvec.Options{DisableBubbleUp: true})}
	for i := 0; i < b.N; i++ {
		rw, err := experiments.CrossValidate(groups, with, 5, 42)
		if err != nil {
			b.Fatal(err)
		}
		ro, err := experiments.CrossValidate(groups, without, 5, 42)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*rw.WeightedErrorRate, "withBubbleUp%")
		b.ReportMetric(100*ro.WeightedErrorRate, "noBubbleUp%")
	}
}

// BenchmarkAblationWindowing compares evaluation on 2500/500 windows vs
// whole stories (DESIGN.md ablation 3: windowing fights position bias).
func BenchmarkAblationWindowing(b *testing.B) {
	s := benchSystem(b)
	m := &core.LearnedMethod{Options: ranksvm.Options{Seed: 42}}
	windowed := s.Dataset(nil)

	// Whole-story groups: one group per cleaned report.
	whole := clicksim.Windows(s.Cleaned, 1<<30, 0)
	wholeGroups := make([]core.Group, 0, len(whole))
	for gi, wg := range whole {
		g := core.Group{ID: gi, StoryID: wg.StoryID, Text: wg.Text, Views: wg.Views}
		for _, e := range wg.Entities {
			g.Examples = append(g.Examples, core.Example{
				Concept: e.Concept, CTR: e.CTR(wg.Views), Clicks: e.Clicks,
				Views: wg.Views, Position: e.Position, Relevant: e.Relevant,
				Degree: e.Degree, Fields: s.Fields(e.Concept.Name),
			})
		}
		wholeGroups = append(wholeGroups, g)
	}

	for i := 0; i < b.N; i++ {
		rw, err := experiments.CrossValidate(windowed, m, 5, 42)
		if err != nil {
			b.Fatal(err)
		}
		ro, err := experiments.CrossValidate(wholeGroups, m, 5, 42)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*rw.WeightedErrorRate, "windowed%")
		b.ReportMetric(100*ro.WeightedErrorRate, "wholeStory%")
	}
}

// BenchmarkAblationQuantization measures the ranking disagreement introduced
// by 2-byte field quantization (DESIGN.md ablation 7): identical scores on
// dequantized vs raw fields mean the 18-byte layout is lossless in practice.
func BenchmarkAblationQuantization(b *testing.B) {
	s := benchSystem(b)
	names := make([]string, len(s.World.Concepts))
	for i := range s.World.Concepts {
		names[i] = s.World.Concepts[i].Name
	}
	table := framework.BuildInterestTable(names, func(n string) features.Fields { return s.Fields(n) })
	for i := 0; i < b.N; i++ {
		maxRelErr := 0.0
		for _, n := range names {
			raw := s.Fields(n)
			q, _ := table.Fields(n)
			re := relErr(raw.FreqExact, q.FreqExact)
			if re > maxRelErr {
				maxRelErr = re
			}
		}
		b.ReportMetric(100*maxRelErr, "maxFieldErr%")
	}
}

func relErr(a, bb float64) float64 {
	if a == 0 {
		return 0
	}
	d := a - bb
	if d < 0 {
		d = -d
	}
	return d / a
}

// BenchmarkMetricNDCG exercises the NDCG implementation itself.
func BenchmarkMetricNDCG(b *testing.B) {
	pred := []float64{5, 3, 4, 1, 2, 6, 0, 7}
	truth := []float64{0.1, 0.05, 0.2, 0.01, 0.02, 0.15, 0.0, 0.3}
	judge := func(ctr float64) float64 { return ctr * 10 }
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eval.NDCG(pred, truth, 3, judge)
	}
}

// BenchmarkBuildFeatures measures the offline batch feature extraction over
// the full concept inventory — the contextrank.Build stage that hammers
// ResultCount and the query-log phrase scan. Guarded in CI against
// BENCH.baseline.json (DESIGN.md §10).
func BenchmarkBuildFeatures(b *testing.B) {
	s := benchSystem(b)
	names := make([]string, len(s.World.Concepts))
	for i := range s.World.Concepts {
		names[i] = s.World.Concepts[i].Name
	}
	setGOMAXPROCS(b, 1) // serial: allocs/op is guarded per concept, not per fan-out
	runtime.GC()        // finish the build's GC cycle before the timed loop shares its one P
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Extractor.BatchFields(names)
	}
}
