package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"time"

	"contextrank/internal/annotate"
	"contextrank/internal/cluster"
	"contextrank/internal/detect"
	"contextrank/internal/features"
	"contextrank/internal/framework"
	"contextrank/internal/resilience"
	"contextrank/internal/serve"
	"contextrank/internal/textproc"
)

// layerMetrics assembles the per-layer metrics of a traced run. Timings
// come from the serial replay and the set-up stages; counters come from
// the servers' own /statz over the traced phase.
type layerMetrics struct {
	r      *runner
	m      map[string]metric
	stages stageTimes
	setupS float64
}

func newLayerMetrics(r *runner, stages stageTimes, setupS float64) *layerMetrics {
	return &layerMetrics{r: r, m: map[string]metric{}, stages: stages, setupS: setupS}
}

func (lm *layerMetrics) set(name string, v float64, unit string) { lm.m[name] = metric{v, unit} }

// statz is every server's counters at one instant.
type statz struct {
	single serve.Stats
	shards []serve.Stats
	router cluster.Statz
}

func (lm *layerMetrics) snapshot() (statz, error) {
	t := lm.r.topo
	var s statz
	if err := getJSON(t.client, t.single.url+"/statz", &s.single); err != nil {
		return s, err
	}
	for _, n := range t.shards {
		var st serve.Stats
		if err := getJSON(t.client, n.url+"/statz", &st); err != nil {
			return s, err
		}
		s.shards = append(s.shards, st)
	}
	return s, getJSON(t.client, t.router.url+"/statz", &s.router)
}

func getJSON(hc *http.Client, url string, v any) error {
	resp, err := hc.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// ratio is num/den, and 0 when nothing was counted.
func ratio[N, D int | int64 | float64](num N, den D) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// counters reports what the servers counted between two snapshots taken
// around the traced phase, and that phase's latency tails. A layer the
// workload does not address reads 0.
func (lm *layerMetrics) counters(a, b statz, ps phaseStats) {
	ca, cb := a.single.Cache, b.single.Cache
	hits, misses := cb.Hits-ca.Hits, cb.Misses-ca.Misses
	lm.set("serve.cache_hit_ratio", ratio(hits, hits+misses), "ratio")
	lm.set("serve.cache_evictions", float64(cb.Evictions-ca.Evictions), "count")
	lm.set("serve.cache_coalesced", float64(cb.Coalesced-ca.Coalesced), "count")

	shed := b.single.Resilience.Shed - a.single.Resilience.Shed
	expired := b.single.Resilience.DeadlineExpired - a.single.Resilience.DeadlineExpired
	werrs := b.single.WriteErrors - a.single.WriteErrors
	var shardHits, shardLookups, shardReqs, maxReqs int64
	for i := range b.shards {
		sa, sb := a.shards[i], b.shards[i]
		shed += sb.Resilience.Shed - sa.Resilience.Shed
		expired += sb.Resilience.DeadlineExpired - sa.Resilience.DeadlineExpired
		werrs += sb.WriteErrors - sa.WriteErrors
		h, m := sb.Cache.Hits-sa.Cache.Hits, sb.Cache.Misses-sa.Cache.Misses
		shardHits += h
		shardLookups += h + m
		reqs := sb.Requests - sa.Requests
		shardReqs += reqs
		if reqs > maxReqs {
			maxReqs = reqs
		}
	}
	lm.set("serve.shed", float64(shed), "count")
	lm.set("serve.deadline_expired", float64(expired), "count")
	lm.set("serve.write_errors", float64(werrs), "count")
	lm.set("cluster.shard_cache_hit_ratio", ratio(shardHits, shardLookups), "ratio")
	lm.set("cluster.shard_request_share_max", ratio(maxReqs, shardReqs), "ratio")
	ra, rb := a.router.Router, b.router.Router
	lm.set("cluster.coalesced", float64(rb.Coalesced-ra.Coalesced), "count")
	lm.set("cluster.failovers", float64(rb.Failovers-ra.Failovers), "count")
	lm.set("cluster.hedges", float64(rb.Hedges-ra.Hedges), "count")
	lm.set("cluster.breaker_skips", float64(rb.BreakerSkips-ra.BreakerSkips), "count")

	tail := func(q float64) float64 { return float64(supported(ps.lat, q)) / 1e6 }
	var serveTail, clusterTail [3]float64
	if lm.r.cfg.workload.routed {
		clusterTail = [3]float64{tail(0.9), tail(0.99), tail(0.999)}
	} else {
		serveTail = [3]float64{tail(0.9), tail(0.99), tail(0.999)}
	}
	lm.set("serve.request_p90_ms", serveTail[0], "ms")
	lm.set("serve.request_p99_ms", serveTail[1], "ms")
	lm.set("serve.request_p999_ms", serveTail[2], "ms")
	lm.set("cluster.request_p99_ms", clusterTail[1], "ms")

	// Index writes: the writer's own clocks and the engine's accounting.
	w := lm.r.w
	st := lm.r.sys.inner.Engine.Stats()
	lm.set("searchsim.add_us_per_doc", ratio(float64(w.addNs)/1e3, w.docs), "us")
	lm.set("searchsim.commit_us_per_call", ratio(float64(w.commitNs)/1e3, w.commits), "us")
	lm.set("searchsim.compact_s_total", float64(w.compactNs)/1e9, "s")
	lm.set("searchsim.compactions", float64(w.compactions), "count")
	lm.set("searchsim.segments_end", float64(st.Segments), "count")
	lm.set("searchsim.frozen_bytes", float64(st.FrozenBytes), "B")
	lm.set("searchsim.raw_bytes", float64(st.RawBytes), "B")
	lm.set("searchsim.memo_hit_ratio", ratio(st.CacheHits, st.CacheHits+st.CacheMisses), "ratio")
}

// discard is a ResponseWriter that keeps nothing: serve.handler is timed
// without a socket.
type discard struct{ h http.Header }

func (d *discard) Header() http.Header         { return d.h }
func (d *discard) Write(p []byte) (int, error) { return len(p), nil }
func (d *discard) WriteHeader(int)             {}

// post sends one annotate request and drains the response.
func post(hc *http.Client, url string, body []byte) error {
	resp, err := hc.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	_, err = io.Copy(io.Discard, resp.Body)
	_ = resp.Body.Close()
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("POST %s: status %d", url, resp.StatusCode)
	}
	return err
}

// replay walks documents no cache has seen through every layer, serially
// on this goroutine, one span per call. It stops at the budget or the end
// of docs, whichever comes first, and derives the timing metrics.
func (lm *layerMetrics) replay(docs []doc, budget time.Duration) (*recorder, error) {
	sys, topo := lm.r.sys, lm.r.topo
	rt := sys.rt
	hc := topo.client
	rec := newRecorder(time.Now())
	ctx := context.Background()

	// A server of its own for the socket-less handler call, so that the
	// document misses there as it did over HTTP.
	handler := newServer(sys, false).Handler()
	// A renderer whose content provider records a span around each call
	// into searchsim, so those spans really nest inside annotate.render.
	cur, req := -1, 0
	renderer := annotate.NewRenderer(&annotate.DefaultProvider{
		Snippets: func(p string, k int) (out []string) {
			rec.timed("searchsim.snippets", cur, req, func() { out = sys.inner.Engine.Snippets(p, k) })
			return out
		},
		Related: func(q string, max int) (out []string) {
			rec.timed("searchsim.suggest", cur, req, func() {
				for _, sg := range sys.suggestor.Suggest(q, max) {
					out = append(out, sg.Text)
				}
			})
			return out
		},
		ArticleWords: sys.inner.Wiki.WordCount,
	})

	groups := features.AllGroups()
	var (
		tokens            []textproc.Token
		fv, std           []float64
		sink              float64
		n, nDet, nRanked  int
		nBytes, nOverlays int
		deadline          = time.Now().Add(budget)
		shardMisses       = make([]int64, len(topo.shards))
	)
	for ; n < len(docs) && time.Now().Before(deadline); n++ {
		d := &docs[n]
		text := d.story.Text
		req = n
		var err error

		reqID := rec.timed("serve.request", -1, n, func() { err = post(hc, topo.single.url+"/v1/annotate", d.body) })
		if err != nil {
			return nil, err
		}
		hID := rec.timed("serve.handler", reqID, n, func() {
			hr, _ := http.NewRequest(http.MethodPost, "http://bench/v1/annotate", bytes.NewReader(d.body))
			handler.ServeHTTP(&discard{h: http.Header{}}, hr)
		})
		var anns []framework.Annotation
		aID := rec.timed("framework.annotate", hID, n, func() { anns, _ = rt.AnnotateCtx(ctx, text, topN) })
		var dets []detect.Detection
		dID := rec.timed("detect.detect", aID, n, func() { dets = rt.Pipeline.Detect(text) })
		rec.timed("textproc.tokenize", dID, n, func() { tokens = textproc.TokenizeInto(text, tokens[:0]) })
		var stems map[string]bool
		rec.timed("framework.stemdoc", aID, n, func() { stems = rt.StemDoc(text) })
		nDet += len(dets)
		nBytes += len(text)

		// The per-detection lookups of the ranking loop, each kind timed
		// over all of the document's ranked detections.
		var fields []features.Fields
		var norms, windows []string
		for _, det := range dets {
			if det.Kind == detect.KindPattern {
				continue
			}
			if f, ok := rt.Interest.Fields(det.Norm); ok {
				fields = append(fields, f)
				norms = append(norms, det.Norm)
				windows = append(windows, localWindow(text, det.Start, det.End))
			}
		}
		nRanked += len(fields)
		tids := rt.Packs.DocTIDs(stems)
		rec.timed("features.expand", aID, n, func() {
			for _, f := range fields {
				fv = f.AppendExpand(fv[:0], groups)
			}
		})
		if cap(std) < len(fv) {
			std = make([]float64, len(fv))
		}
		rec.timed("ranksvm.score", aID, n, func() {
			for range fields {
				sink += rt.Model.ScoreBuf(fv, std)
			}
		})
		rec.timed("framework.packs_score", aID, n, func() {
			for _, name := range norms {
				sink += rt.Packs.Score(name, tids)
			}
		})
		rec.timed("framework.window_tokenize", aID, n, func() {
			for _, w := range windows {
				tokens = textproc.TokenizeInto(w, tokens[:0])
			}
		})
		rec.timed("framework.degraded", -1, n, func() { rt.AnnotateDegraded(text, topN) })

		// The same document again, now resident.
		rec.timed("serve.request_hit", -1, n, func() { err = post(hc, topo.single.url+"/v1/annotate", d.body) })
		if err != nil {
			return nil, err
		}

		// Through the router (a miss on the owning shard, then a hit), then
		// straight to that shard: the difference of the two hits is the hop.
		for i, sh := range topo.shards {
			shardMisses[i] = sh.srv.Cache.Stats().Misses
		}
		rec.timed("cluster.request_miss", -1, n, func() { err = post(hc, topo.router.url+"/v1/annotate", d.body) })
		if err != nil {
			return nil, err
		}
		owner := -1
		for i, sh := range topo.shards {
			if sh.srv.Cache.Stats().Misses > shardMisses[i] {
				owner = i
			}
		}
		if owner < 0 {
			return nil, fmt.Errorf("replay doc %d: no shard took the routed miss", n)
		}
		rec.timed("cluster.request_hit", -1, n, func() { err = post(hc, topo.router.url+"/v1/annotate", d.body) })
		if err != nil {
			return nil, err
		}
		rec.timed("cluster.direct_hit", -1, n, func() { err = post(hc, topo.shards[owner].url+"/v1/annotate", d.body) })
		if err != nil {
			return nil, err
		}

		// Rendering the precomputed annotations, and the index reads.
		var html string
		cur = rec.begin("annotate.render", -1, n)
		html = renderer.Render(text, anns)
		rec.end(cur)
		nOverlays += bytes.Count([]byte(html), conceptAttr)
		cur = -1
		for _, a := range anns {
			if a.Detection.Kind == detect.KindPattern {
				continue
			}
			name := a.Detection.Norm
			rec.timed("searchsim.search", -1, n, func() { sys.inner.Engine.Search(name, 10) })
			rec.timed("searchsim.resultcount", -1, n, func() { sys.inner.Engine.ResultCount(name) })
		}
	}
	if n == 0 {
		return nil, fmt.Errorf("replay: no document fitted the budget")
	}
	_ = sink

	lt := selfTimes(rec.spans)
	perDoc := func(name string) float64 { return float64(lt[name].total) / 1e3 / float64(n) } // us
	perCall := func(name string) float64 { return ratio(float64(lt[name].total)/1e3, lt[name].count) }
	perDet := func(name string) float64 { return ratio(float64(lt[name].total), nRanked) } // ns

	lm.set("textproc.tokenize_us_per_doc", perDoc("textproc.tokenize"), "us")
	lm.set("textproc.tokenize_mb_per_s", float64(nBytes)/(1<<20)/(float64(lt["textproc.tokenize"].total)/1e9), "MB/s")
	lm.set("detect.detect_us_per_doc", perDoc("detect.detect"), "us")
	lm.set("detect.detections_per_doc", float64(nDet)/float64(n), "count")
	lm.set("framework.stemdoc_us_per_doc", perDoc("framework.stemdoc"), "us")
	lm.set("features.expand_ns_per_detection", perDet("features.expand"), "ns")
	lm.set("ranksvm.score_ns_per_detection", perDet("ranksvm.score"), "ns")
	lm.set("framework.packs_score_ns_per_detection", perDet("framework.packs_score"), "ns")
	lm.set("framework.window_tokenize_ns_per_detection", perDet("framework.window_tokenize"), "ns")
	lm.set("framework.ranked_detections_per_doc", float64(nRanked)/float64(n), "count")
	ann := lt["framework.annotate"]
	lm.set("framework.annotate_us_per_doc", perDoc("framework.annotate"), "us")
	lm.set("framework.rank_other_us_per_doc", perDoc("framework.annotate")-perDoc("detect.detect")-perDoc("framework.stemdoc"), "us")
	lm.set("framework.unattributed_share", float64(ann.own)/float64(ann.total), "ratio")
	lm.set("framework.degraded_us_per_doc", perDoc("framework.degraded"), "us")
	lm.set("serve.request_us", perDoc("serve.request"), "us")
	lm.set("serve.request_hit_us", perDoc("serve.request_hit"), "us")
	lm.set("serve.handler_us", perDoc("serve.handler"), "us")
	lm.set("serve.overhead_us_per_req", perDoc("serve.request")-perDoc("framework.annotate"), "us")
	lm.set("cluster.hop_us_per_req", perDoc("cluster.request_hit")-perDoc("cluster.direct_hit"), "us")
	lm.set("annotate.render_us_per_doc", perDoc("annotate.render"), "us")
	lm.set("annotate.overlays_per_doc", float64(nOverlays)/float64(n), "count")
	lm.set("searchsim.snippets_us_per_call", perCall("searchsim.snippets"), "us")
	lm.set("searchsim.suggest_us_per_call", perCall("searchsim.suggest"), "us")
	lm.set("searchsim.search_us_per_call", perCall("searchsim.search"), "us")
	lm.set("searchsim.resultcount_us_per_call", perCall("searchsim.resultcount"), "us")

	// Allocation counts need the world stopped around them, so they get
	// their own passes over the same documents.
	allocs, _ := allocsPer(n, func(i int) { rt.Pipeline.Detect(docs[i].story.Text) })
	lm.set("detect.allocs_per_doc", allocs, "count")
	allocs, size := allocsPer(n, func(i int) { _, _ = rt.AnnotateCtx(ctx, docs[i].story.Text, topN) })
	lm.set("framework.annotate_allocs_per_doc", allocs, "count")
	lm.set("framework.annotate_bytes_per_doc", size, "B")
	return rec, nil
}

// localWindow is the context the runtime scores a detection's relevance
// in: framework.LocalRadius bytes either side, widened to whitespace. The
// runtime re-tokenizes it per ranked detection inside AnnotateCtx; the
// replay times that tokenization (not the stem and TID lookups that follow
// it) so the largest part of the ranking loop has a name.
func localWindow(text string, start, end int) string {
	lo, hi := start-framework.LocalRadius, end+framework.LocalRadius
	if lo < 0 {
		lo = 0
	}
	if hi > len(text) {
		hi = len(text)
	}
	for lo > 0 && text[lo-1] != ' ' && text[lo-1] != '\n' {
		lo--
	}
	for hi < len(text) && text[hi] != ' ' && text[hi] != '\n' {
		hi++
	}
	return text[lo:hi]
}

// allocsPer runs fn(0..n-1) on this goroutine and returns the heap
// allocations and bytes per call. Nothing else runs meanwhile: the clients
// have stopped and the servers are idle.
func allocsPer(n int, fn func(i int)) (allocs, size float64) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < n; i++ {
		fn(i)
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(n), float64(b.TotalAlloc-a.TotalAlloc) / float64(n)
}

// micro times the three calls too short to time one at a time.
func (lm *layerMetrics) micro() {
	iters := lm.r.cfg.sz.microIters
	ctx := context.Background()
	per := func(fn func(i int)) float64 {
		start := time.Now()
		for i := 0; i < iters; i++ {
			fn(i)
		}
		return float64(time.Since(start)) / float64(iters)
	}

	cache := serve.NewCache(serveCacheSize)
	body := []byte("{}\n")
	fill := func(context.Context) ([]byte, bool) { return body, true }
	text := lm.r.clients[0].docs[0].story.Text
	_, _ = cache.Do(ctx, text, topN, 0, fill)
	lm.set("serve.cache_do_hit_ns", per(func(int) { _, _ = cache.Do(ctx, text, topN, 0, fill) }), "ns")

	gate := resilience.NewGate(serveMaxInflight, serveQueueLen, serveQueueWait)
	lm.set("resilience.gate_acquire_release_ns", per(func(int) {
		if release, err := gate.Acquire(ctx); err == nil {
			release()
		}
	}), "ns")

	names := make([]string, routerShards)
	for i := range names {
		names[i] = fmt.Sprintf("shard%d", i)
	}
	ring := cluster.NewRing(names, 0)
	lm.set("cluster.ring_replicas_ns", per(func(i int) {
		ring.Replicas(uint64(i)*0x9e3779b97f4a7c15, routerReplication)
	}), "ns")
}

// setupBudget reports the set-up stages and the share of set-up they do
// not account for. core.build_s is the parent of the eight build stages
// and so is not itself a part.
func (lm *layerMetrics) setupBudget() {
	parts := 0.0
	for name, s := range lm.stages {
		lm.set(name, s, "s")
		if name != "core.build_s" {
			parts += s
		}
	}
	lm.set("framework.bundle_bytes", float64(lm.r.sys.bundleBytes), "B")
	lm.set("core.setup_unattributed_share", (lm.setupS-parts)/lm.setupS, "ratio")
}
