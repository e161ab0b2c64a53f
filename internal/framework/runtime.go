package framework

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"contextrank/internal/detect"
	"contextrank/internal/features"
	"contextrank/internal/match"
	"contextrank/internal/ranksvm"
	"contextrank/internal/relevance"
	"contextrank/internal/stem"
	"contextrank/internal/textproc"
)

// Annotation is one ranked shortcut emitted by the runtime.
type Annotation struct {
	// Detection is the underlying entity occurrence.
	Detection detect.Detection
	// Score is the model's ranking score.
	Score float64
	// Relevance is the packed-keyword relevance score in this document.
	Relevance float64
}

// Tables is a runtime less its model: the detection pipeline, the
// interestingness table, the keyword packs and the word table derived from
// the pipeline and the packs. Nothing in it reads a model, so the offline
// build assembles it beside the model's fit; Runtime joins the two.
type Tables struct {
	Pipeline *detect.Pipeline
	Interest *InterestTable
	Packs    *KeywordPacks

	// words maps a normalized word to its entry (words.go): the one probe
	// per token of the stemmer stage.
	words map[string]wordEntry
}

// NewTables wires the components, lays the packs out in the interest rows
// (dropping a pack without one) and builds the word table over the
// pipeline's vocabularies, the stop list and the Global TID Table.
func NewTables(p *detect.Pipeline, it *InterestTable, kp *KeywordPacks) *Tables {
	if it != nil {
		kp, _ = kp.inRows(it)
	}
	return &Tables{Pipeline: p, Interest: it, Packs: kp, words: newWordTable(p, kp.TIDs)}
}

// Runtime is the online system of Figure 4: Stemmer → hash-table lookups
// (interestingness vectors, Global TID Table, keyword packs) → Ranker. All
// tables live in memory; per-document work is one word-table probe per
// token, detection, and constant-time lookups per detected concept.
//
// Pipeline and Packs are fixed at construction: the word table NewTables
// derives from them describes those two, so a runtime over other ones is
// built from new Tables.
type Runtime struct {
	Tables
	Model *ranksvm.Model

	// interest[r] is the model's sum over row r's interestingness
	// features: the first interestDim terms of each score of its concept.
	interest []float64

	// Timing accumulators for the §VI throughput experiment (atomic: the
	// runtime serves concurrent requests in production).
	stemNanos, rankNanos atomic.Int64
	bytesProcessed       atomic.Int64
}

// Runtime joins the tables with a fitted model: the one constructor of a
// Runtime. It panics on a model that is not linear or not modelDim wide.
// Each interest row's sum is taken here, once: a detection adds only its
// relevance terms.
func (t *Tables) Runtime(model *ranksvm.Model) *Runtime {
	if model.Kernel != ranksvm.Linear {
		panic(fmt.Sprintf("framework: the runtime serves linear models, not kernel %d", model.Kernel))
	}
	for _, v := range [][]float64{model.Weights, model.Mean, model.Scale} {
		if len(v) != modelDim {
			panic(fmt.Sprintf("framework: model has %d features, the runtime's layout %d", len(v), modelDim))
		}
	}
	rt := &Runtime{Tables: *t, Model: model}
	if t.Interest != nil {
		rt.interest = make([]float64, t.Interest.Len())
		fv := make([]float64, 0, interestDim)
		for r := range rt.interest {
			fv = t.Interest.fieldsAt(uint32(r)).AppendExpand(fv[:0], allGroups)
			rt.interest[r] = model.AddTerms(0, 0, fv)
		}
	}
	return rt
}

// NewRuntime is NewTables(p, it, kp).Runtime(model).
func NewRuntime(p *detect.Pipeline, it *InterestTable, kp *KeywordPacks, model *ranksvm.Model) *Runtime {
	return NewTables(p, it, kp).Runtime(model)
}

// annScratch is the pooled per-request working set of AnnotateCtx: the
// document analysis every stage reads — the token slice and, beside it,
// each token's stem as a Global TID and its detection vocabulary ids — the
// buffer a word outside the word table is stemmed into, the window TID set
// (stamped, not cleared, between windows) and top-N dedup set, the
// annotation accumulators.
type annScratch struct {
	tokens   []textproc.Token
	tokTID   []uint32         // tokTID[i] is tokens[i]'s stem in the Global TID Table; match.NoID for a non-content word or a stem no pack uses
	tokIDs   []detect.WordIDs // tokIDs[i] is tokens[i]'s ids in the pipeline's vocabularies
	stemBuf  []byte
	dets     []detect.Detection
	window   tidSet
	kept     map[string]bool
	patterns []Annotation
	ranked   []Annotation
}

var annPool = sync.Pool{New: func() any {
	return &annScratch{kept: make(map[string]bool)}
}}

// lookupWords is the per-token half of the stemmer stage, Figure 4's "the
// stemmed version of the document is created first and stored for later
// usage": beside sc.tokens it writes each token's entry, its TID into
// sc.tokTID and its vocabulary ids into sc.tokIDs. A word costs one probe
// of the word table; a word outside it is a content word in neither
// vocabulary, whose stem is computed into sc.stemBuf and looked up without
// a copy — or left at match.NoID when stemMisses is false, for the
// degraded path, which reads only the ids.
func (rt *Runtime) lookupWords(sc *annScratch, stemMisses bool) {
	sc.tokTID, sc.tokIDs = sc.tokTID[:0], sc.tokIDs[:0]
	for i := range sc.tokens {
		e := noEntry
		if t := &sc.tokens[i]; t.Kind != textproc.Punct && t.Norm != "" {
			if hit, ok := rt.words[t.Norm]; ok {
				e = hit
			} else if stemMisses {
				sc.stemBuf = stem.AppendStem(sc.stemBuf[:0], t.Norm)
				e.tid = rt.Packs.TIDs.IDBytes(sc.stemBuf)
			}
		}
		sc.tokTID = append(sc.tokTID, e.tid)
		sc.tokIDs = append(sc.tokIDs, e.ids)
	}
}

// LocalRadius is the byte radius of the context used to score each
// detection's relevance: relevance.LocalWindow's.
const LocalRadius = relevance.LocalRadius

// Annotate detects, scores and ranks the concepts of a document, returning
// annotations in decreasing score order. topN ≤ 0 returns all; otherwise the
// top-N distinct concepts are kept (all their occurrences). Pattern entities
// bypass ranking and are always included first (paper §II-A: "pattern based
// entities are not subject to any relevance calculations [and] are always
// annotated").
func (rt *Runtime) Annotate(text string, topN int) []Annotation {
	// context.Background never cancels, so the error is impossible.
	anns, _ := rt.AnnotateCtx(context.Background(), text, topN)
	return anns
}

// allGroups is the full feature-group mask. Read-only after init.
var allGroups = features.AllGroups()

// modelDim is the model width Tables.Runtime and LoadBundle accept: the layout
// TrainRanker fits (core.LearnedMethod with relevance) — the interestDim
// interestingness features, then features.AppendRelevance's.
var (
	interestDim = features.Dim(allGroups)
	modelDim    = interestDim + features.NumRelevance
)

// cancelCheckEvery is how many ranking iterations run between cooperative
// ctx checks: frequent enough that a deadline interrupts a pathological
// document in well under a millisecond, rare enough that the atomic load
// never shows up in the §VI throughput numbers.
const cancelCheckEvery = 64

// AnnotateCtx is Annotate with cooperative cancellation: the per-request
// deadline set by the serving layer is checked between pipeline stages and
// every cancelCheckEvery detections inside the ranking loop. On expiry it
// returns ctx.Err() and a nil slice — the caller (internal/serve) decides
// whether to degrade to the cheap ranking or fail the request.
//
// The document is analysed once: it is tokenized, lookupWords resolves
// every token's stem TID and vocabulary ids, the detectors read those, and
// each ranked detection's relevance context is a range of them. The two timed stages of the §VI
// experiment follow Figure 4: tokenize + stem is the stemmer, everything
// after it (detection, table lookups, scoring, sorting) the ranker. Both
// clocks and the byte count are recorded together and only for completed
// documents, so an abandoned request cannot skew the throughput figures.
//
//kw:hotpath
func (rt *Runtime) AnnotateCtx(ctx context.Context, text string, topN int) ([]Annotation, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sc := annPool.Get().(*annScratch)
	defer annPool.Put(sc)
	start := time.Now()
	sc.tokens = textproc.TokenizeInto(text, sc.tokens[:0]) //kwlint:ignore hotpath — token normalization (ToLower of mixed-case tokens) is the documented per-document budget
	rt.lookupWords(sc, true)
	stemmed := time.Now()
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	sc.dets = rt.Pipeline.DetectTokens(sc.dets[:0], text, sc.tokens, sc.tokIDs)
	sc.patterns, sc.ranked = sc.patterns[:0], sc.ranked[:0]
	for i, d := range sc.dets {
		if i%cancelCheckEvery == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		if d.Kind == detect.KindPattern {
			sc.patterns = append(sc.patterns, Annotation{Detection: d})
			continue
		}
		row := rt.Interest.names.ID(d.Norm)
		if row == match.NoID {
			// Outside the supported concept inventory: the production
			// system only annotates entities whose features were
			// precomputed offline ("we initially focus our efforts on a
			// large, but finite set of entities").
			continue
		}
		sc.windowTIDs(rt.Packs.TIDs.Len(), text, d.Start)
		rel, relNorm := rt.Packs.scoreNorm(rt.Packs.packs[row], &sc.window)
		sc.ranked = append(sc.ranked, Annotation{Detection: d, Score: rt.score(row, rel, relNorm), Relevance: rel})
	}
	slices.SortStableFunc(sc.ranked, func(a, b Annotation) int {
		// The paper's tie-break: favor the higher relevance score.
		return cmp.Or(cmp.Compare(b.Score, a.Score), cmp.Compare(b.Relevance, a.Relevance))
	})
	clear(sc.kept)
	ranked := keepTopConcepts(sc.kept, sc.ranked, topN)
	// The result is the only per-document allocation of this function: the
	// accumulators stay with the scratch.
	out := make([]Annotation, 0, len(sc.patterns)+len(ranked))
	out = append(append(out, sc.patterns...), ranked...)
	rt.stemNanos.Add(stemmed.Sub(start).Nanoseconds())
	rt.rankNanos.Add(time.Since(stemmed).Nanoseconds())
	rt.bytesProcessed.Add(int64(len(text)))
	return out, nil
}

// score is the model's score of a detection of row's concept whose context
// scored rel, relNorm: the row's interestingness sum, then the relevance
// terms, summed on in the model's order, so it has Model.Score's bits.
func (rt *Runtime) score(row uint32, rel, relNorm float64) float64 {
	var rv [features.NumRelevance]float64
	return rt.Model.AddTerms(rt.interest[row], interestDim, features.AppendRelevance(rv[:0], rel, relNorm))
}

// keepTopConcepts keeps the top-N *distinct* concepts of a ranked slice;
// every occurrence of a kept concept stays annotated ("an application can
// then choose the top N entities from this ranked list"). topN ≤ 0 keeps
// everything. kept is the caller's (cleared) dedup set — the hot path
// hands in pooled scratch so the dedup costs no per-request allocation.
func keepTopConcepts(kept map[string]bool, ranked []Annotation, topN int) []Annotation {
	if topN <= 0 {
		return ranked
	}
	out := ranked[:0]
	for _, a := range ranked {
		if !kept[a.Detection.Norm] {
			if len(kept) == topN {
				continue
			}
			kept[a.Detection.Norm] = true
		}
		out = append(out, a)
	}
	return out
}

// AnnotateDegraded is the graceful-degradation path: a dictionary-score
// ranking that skips the expensive stages — no stemming pass, no keyword
// pack scoring, no model evaluation — and orders concepts by their static
// FreqExact interestingness field (the click-dictionary prior quantized
// into the interest table). It exists so that, under shedding pressure or
// deadline exhaustion, the serving layer can still answer with plausible
// annotations instead of an error. Output contract: same shape as
// Annotate (patterns first, then ranked concepts, top-N dedup), Relevance
// always 0, deterministic order (score desc, concept name asc, position
// asc on ties). Not recorded in the throughput accumulators — it is not
// the Figure 4 pipeline.
func (rt *Runtime) AnnotateDegraded(text string, topN int) []Annotation {
	sc := annPool.Get().(*annScratch)
	defer annPool.Put(sc)
	sc.tokens = textproc.TokenizeInto(text, sc.tokens[:0])
	rt.lookupWords(sc, false)
	sc.dets = rt.Pipeline.DetectTokens(sc.dets[:0], text, sc.tokens, sc.tokIDs)
	sc.patterns, sc.ranked = sc.patterns[:0], sc.ranked[:0]
	for _, d := range sc.dets {
		if d.Kind == detect.KindPattern {
			sc.patterns = append(sc.patterns, Annotation{Detection: d})
			continue
		}
		row := rt.Interest.names.ID(d.Norm)
		if row == match.NoID {
			continue
		}
		sc.ranked = append(sc.ranked, Annotation{Detection: d, Score: rt.Interest.fieldsAt(row).FreqExact})
	}
	slices.SortStableFunc(sc.ranked, func(a, b Annotation) int {
		return cmp.Or(
			cmp.Compare(b.Score, a.Score),
			strings.Compare(a.Detection.Norm, b.Detection.Norm),
			cmp.Compare(a.Detection.Start, b.Detection.Start))
	})
	clear(sc.kept)
	ranked := keepTopConcepts(sc.kept, sc.ranked, topN)
	out := make([]Annotation, 0, len(sc.patterns)+len(ranked))
	return append(append(out, sc.patterns...), ranked...)
}

// windowTIDs fills sc.window, sized for nTIDs, with the TIDs of the
// stemmed content words in the context of byte pos — relevance.LocalWindow.
// The window's words are a range of the document's tokens: the window ends
// on ' ', '\n' or an edge of the text, no token holds either byte, so no
// token straddles an edge and the tokens that start inside the window are
// exactly the tokens of the window's text (FuzzWindowTIDs checks it).
func (sc *annScratch) windowTIDs(nTIDs int, text string, pos int) {
	lo, hi := relevance.LocalWindow(text, pos)
	first := sort.Search(len(sc.tokens), func(i int) bool { return sc.tokens[i].Start >= lo })
	end := first + sort.Search(len(sc.tokens)-first, func(i int) bool { return sc.tokens[first+i].Start >= hi })
	sc.window.stamp(nTIDs, sc.tokTID[first:end])
}

// Throughput reports the stemmer and ranker processing rates in MB/s since
// the runtime was created — the paper's §VI experiment ("processing rates
// of 7.9MB/sec and 2.4MB/sec"). Both are over the same bytes: the documents
// AnnotateCtx completed.
func (rt *Runtime) Throughput() (stemMBps, rankMBps float64) {
	mb := float64(rt.bytesProcessed.Load()) / (1 << 20)
	if n := rt.stemNanos.Load(); n > 0 {
		stemMBps = mb / (float64(n) / 1e9)
	}
	if n := rt.rankNanos.Load(); n > 0 {
		rankMBps = mb / (float64(n) / 1e9)
	}
	return
}
