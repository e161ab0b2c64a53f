package main

import (
	"fmt"
	"hash/maphash"
	"io"
	"sort"
	"sync"
	"time"

	"contextrank/internal/newsgen"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one run reports. The first four fields are the last
// line of standard output; the rest go on the line before it.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	info runInfo
}

// runInfo identifies a run and carries what is exact for a seed.
type runInfo struct {
	Workload     string  `json:"workload"`
	Seed         int64   `json:"seed"`
	Seconds      float64 `json:"seconds"`
	Trace        int     `json:"trace"`
	OutputDigest string  `json:"output_digest"`
	Samples      int     `json:"latency_samples"`
	Verified     int     `json:"responses_compared_with_runtime"`
	FirstFailure string  `json:"first_failure,omitempty"`
}

// runConfig is one invocation.
type runConfig struct {
	workload workload
	seed     int64
	seconds  float64
	trace    bool
	sz       sizing
	outDir   string
	logw     io.Writer
	// started, when set, is told about each topology as soon as it
	// listens (the tests check that it has stopped listening afterwards).
	started func(*topology)
}

// runner is the state of one run between its phases.
type runner struct {
	cfg     runConfig
	sys     *system
	topo    *topology
	clients []*client
	next    []func() int
	w       *writer
}

// phaseStats is one timed phase.
type phaseStats struct {
	lat  []int64 // every latency, sorted, ns
	recs []*recorder
	// Per window of about one second: responses per second and the median
	// latency of the responses that completed in it.
	windowRPS, windowP50 []float64
}

// rps is the upper quartile of the windows' rates and p50ms the lower
// quartile of their median latencies. What disturbs a run from outside the
// process (the box is shared: sizing saw the same work run 10-40% slower
// for seconds to minutes at a time) only ever slows a window down, so the
// better quarter of a run's seconds is the part least disturbed, and it
// repeats between runs far better than the mean or the median does.
func (p phaseStats) rps() float64   { return quantile(p.windowRPS, 0.75) }
func (p phaseStats) p50ms() float64 { return quantile(p.windowP50, 0.25) }

// run executes one workload end to end. Every listener it opens is closed
// and every goroutine it starts has returned when it returns.
func run(cfg runConfig) (res *result, err error) {
	sz := cfg.sz
	logf := func(format string, args ...any) { fmt.Fprintf(cfg.logw, format+"\n", args...) }
	r := &runner{cfg: cfg}

	// Set-up, repeated: the median is reported and the last build serves.
	// A traced run builds once, stage by stage. Each set-up is followed,
	// outside setup_s, by the same catch-up ingest into its fresh engine:
	// identical work every time, so its median rate is the steady
	// ingest_docs_per_s of the workloads that have no writer of their own.
	wl := cfg.workload
	setups := sz.setups
	var stages stageTimes
	var recs []*recorder // of a traced run, besides the traced phase's
	if cfg.trace {
		setups, stages = 1, stageTimes{}
	}
	var setupS, catchUp []float64
	var stories []ingestStory
	for i := 0; i < setups; i++ {
		if r.topo != nil {
			if err := r.topo.stop(); err != nil {
				return nil, err
			}
			r.topo, r.sys, r.w = nil, nil, nil
		}
		start := time.Now()
		if r.sys, err = buildSystem(sz.config(cfg.seed), stages); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		if r.topo, err = startTopology(r.sys, cfg.seed); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(start).Seconds())
		if cfg.started != nil {
			cfg.started(r.topo)
		}
		if stories == nil {
			feed := newsgen.NewFeed(r.sys.inner.World, newsgen.Config{Seed: cfg.seed + 2}, ingestBatch)
			stories = takeIngestStories(feed, sz.ingestPool)
		}
		r.w = &writer{e: r.sys.inner.Engine, stories: stories}
		if cfg.trace {
			r.w.rec = newRecorder(time.Now())
			recs = append(recs, r.w.rec)
		}
		r.w.run(func() bool { return r.w.docs >= sz.ingestCatchUp })
		r.w.rec = nil
		catchUp = append(catchUp, r.w.docsPerSec())
		logf("set-up %d/%d: %.3fs, then %d stories ingested at %.0f/s", i+1, setups, setupS[i], r.w.docs, catchUp[i])
	}
	defer func() {
		if serr := r.topo.stop(); serr != nil && err == nil {
			res, err = nil, serr
		}
	}()
	heap := heapLiveMiB()
	index := r.sys.inner.Engine.Stats()

	// Request documents, from a feed of their own.
	feed := newsgen.NewFeed(r.sys.inner.World, newsgen.Config{Seed: cfg.seed + 7}, ingestBatch)
	docs, err := takeDocs(feed, wl.pool(sz))
	if err != nil {
		return nil, err
	}

	k := wl.requestClients()
	hseed := maphash.MakeSeed()
	for id := 0; id < k; id++ {
		r.clients = append(r.clients, newClient(id, r.topo.client, wl.url(r.topo), wl.render, docs, hseed, sz.verifyPrefix))
		if wl.zipf {
			z := newZipf(cfg.seed*1000003+int64(id), zipfS, len(docs))
			r.next = append(r.next, z.next)
		} else {
			r.next = append(r.next, cycle(id, k, len(docs)))
		}
	}

	// Warm-up, by count: a fixed request sequence per client, so what it
	// is served (the output digest, precision_at_top) repeats for a seed.
	r.warmUp()

	var end phaseStats
	metrics := map[string]metric{}
	if !cfg.trace {
		end = r.phase(seconds(cfg.seconds), false)
		ingest := median(catchUp)
		if wl.render {
			ingest = r.w.docsPerSec() // the writer beside the reader
		}
		metrics["setup_s"] = metric{median(setupS), "s"}
		metrics["throughput_rps"] = metric{end.rps(), "1/s"}
		metrics["latency_p50_ms"] = metric{end.p50ms(), "ms"}
		metrics["bundle_bytes"] = metric{float64(r.sys.bundleBytes), "B"}
		metrics["heap_live_mb"] = metric{heap, "MiB"}
		metrics["ingest_docs_per_s"] = metric{ingest, "1/s"}
		metrics["index_frozen_ratio"] = metric{float64(index.FrozenBytes) / float64(index.RawBytes), "ratio"}
	} else {
		// A quarter of the time untraced, a quarter traced, the rest for
		// the serial replay.
		lm := newLayerMetrics(r, stages, setupS[0])
		plain := r.phase(seconds(cfg.seconds/4), false)
		before, err := lm.snapshot()
		if err != nil {
			return nil, err
		}
		end = r.phase(seconds(cfg.seconds/4), true)
		after, err := lm.snapshot()
		if err != nil {
			return nil, err
		}
		lm.counters(before, after, end)
		lm.m["trace_overhead_share"] = metric{(end.rps() - plain.rps()) / plain.rps(), "ratio"}
		replay, err := takeDocs(feed, sz.replayDocs)
		if err != nil {
			return nil, err
		}
		rec, err := lm.replay(replay, seconds(cfg.seconds*0.4))
		if err != nil {
			return nil, err
		}
		lm.micro()
		timeBuildStages(r.sys.inner.Config, stages)
		lm.setupBudget()
		metrics = lm.m
		if err := writeTrace(cfg.outDir, wl.name, merge(append(append(recs, end.recs...), rec)...)); err != nil {
			return nil, fmt.Errorf("write trace: %w", err)
		}
	}

	v := verify(r.sys.rt, r.clients, sz.verifyPrefix)
	if !cfg.trace {
		metrics["precision_at_top"] = metric{float64(v.relevant) / float64(v.returned), "ratio"}
	}
	res = &result{Correct: v.failed == 0, Failed: v.failed, Metrics: metrics}
	res.info = runInfo{
		Workload: wl.name, Seed: cfg.seed, Seconds: cfg.seconds, Trace: b2i(cfg.trace),
		OutputDigest: v.digest, Samples: len(end.lat), FirstFailure: v.firstFail,
	}
	for _, c := range r.clients {
		res.Attempted += c.attempted
		res.info.Verified += len(c.samples)
	}
	return res, nil
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// each runs fn for every client on its own goroutine and waits.
func (r *runner) each(fn func(i int, c *client)) {
	var wg sync.WaitGroup
	for i, c := range r.clients {
		wg.Add(1)
		go func(i int, c *client) {
			defer wg.Done()
			fn(i, c)
		}(i, c)
	}
	wg.Wait()
}

func (r *runner) warmUp() {
	wl, sz := r.cfg.workload, r.cfg.sz
	k := len(r.clients)
	r.each(func(i int, c *client) {
		if wl.zipf {
			// Sweep what the caches can hold, coldest rank first: sweeping
			// colder ranks than that would only be evicted again.
			resident := serveCacheSize
			if wl.routed {
				resident *= routerShards
			}
			for _, d := range sweep(i, k, min(len(c.docs), resident)) {
				c.do(d, true)
			}
			return
		}
		for n := wl.warm(sz) / k; n > 0; n-- {
			c.do(r.next[i](), true)
		}
	})
}

// phase drives the workload for d: every client in a closed loop and, on
// render-ingest, the writer beside them.
func (r *runner) phase(d time.Duration, traced bool) phaseStats {
	var ps phaseStats
	start := time.Now()
	for _, c := range r.clients {
		c.lat, c.done, c.phaseStart = c.lat[:0], c.done[:0], start
		if traced {
			c.rec = newRecorder(start)
			ps.recs = append(ps.recs, c.rec)
		}
	}
	deadline := start.Add(d)
	expired := func() bool { return !time.Now().Before(deadline) }

	var wg sync.WaitGroup
	if r.cfg.workload.render {
		if traced {
			r.w.rec = newRecorder(start)
			ps.recs = append(ps.recs, r.w.rec)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.w.run(expired)
		}()
	}
	r.each(func(i int, c *client) {
		for !expired() {
			c.do(r.next[i](), false)
		}
	})
	wg.Wait()

	// Cut the phase into windows of about a second; a response belongs to
	// the window it completed in, and one that completed after the
	// deadline to none.
	n := int(d / time.Second)
	if n < 1 {
		n = 1
	}
	width := int64(d) / int64(n)
	perWindow := make([][]int64, n)
	for _, c := range r.clients {
		for i, at := range c.done {
			if w := int(at / width); w < n {
				perWindow[w] = append(perWindow[w], c.lat[i])
			}
		}
		ps.lat = append(ps.lat, c.lat...)
		c.rec = nil
	}
	r.w.rec = nil
	for _, lats := range perWindow {
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		p50, _ := percentile(lats, 0.5)
		ps.windowRPS = append(ps.windowRPS, float64(len(lats))/(float64(width)/1e9))
		ps.windowP50 = append(ps.windowP50, float64(p50)/1e6)
	}
	sort.Slice(ps.lat, func(i, j int) bool { return ps.lat[i] < ps.lat[j] })
	fmt.Fprintf(r.cfg.logw, "responses per second, by window: %.0f\n", ps.windowRPS)
	return ps
}
