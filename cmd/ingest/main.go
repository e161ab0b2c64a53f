// Command ingest runs the live-index streaming pipeline: it bulk-builds a
// base corpus, then tails an endless world-generated news feed into the
// engine's mutable tier — batching appends, committing per batch, and
// folding segments back into compressed form with background size-tiered
// compaction — while serving concurrent read probes the whole time. This is
// the operational proof of the two-tier engine: the index is never closed to
// writes, readers never block, and /statz exposes the ingest and compaction
// counters and the index's resident footprint live.
//
// Usage:
//
//	ingest -total 20000                  # ingest 20k docs, report, exit
//	ingest -addr :8091 -total 0          # endless; watch /statz, SIGTERM to stop
//
// Try it:
//
//	curl -s localhost:8091/statz
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"contextrank/internal/newsgen"
	"contextrank/internal/searchsim"
	"contextrank/internal/world"
)

func main() {
	addr := flag.String("addr", ":8091", "listen address for /statz (empty = no HTTP)")
	seed := flag.Int64("seed", 42, "world and feed seed")
	vocab := flag.Int("vocab", 6000, "world vocabulary size")
	concepts := flag.Int("concepts", 1200, "world concept count")
	batch := flag.Int("batch", 64, "stories per feed batch (one Commit per batch)")
	total := flag.Int("total", 20000, "stop after this many ingested docs (0 = endless)")
	probes := flag.Int("probes", 2, "concurrent read-probe goroutines (0 = none)")
	flag.Parse()

	fmt.Fprintln(os.Stderr, "building base corpus...")
	p, err := newPipeline(pipelineConfig{
		Seed:     *seed,
		Vocab:    *vocab,
		Concepts: *concepts,
		Batch:    *batch,
		Probes:   *probes,
	})
	if err != nil {
		fatal(err)
	}
	st := p.engine.Stats()
	fmt.Fprintf(os.Stderr, "base frozen: %d docs, %d terms, %d frozen bytes, %d resident bytes, %d forward bytes\n",
		st.Docs, st.Terms, st.FrozenBytes, st.ResidentBytes, st.ForwardBytes)

	var httpServer *http.Server
	if *addr != "" {
		ln, err := net.Listen("tcp", *addr)
		if err != nil {
			fatal(err)
		}
		httpServer = &http.Server{Handler: p.handler(), ReadHeaderTimeout: 5 * time.Second}
		go httpServer.Serve(ln)
		fmt.Fprintf(os.Stderr, "statz on http://%s/statz\n", ln.Addr())
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		fmt.Fprintln(os.Stderr, "signal: stopping ingest")
		p.stop()
	}()

	p.run(*total)
	p.stop()
	p.wait()
	if httpServer != nil {
		httpServer.Close()
	}

	final := p.snapshot()
	fmt.Fprintf(os.Stderr,
		"ingested %d docs in %.1fs (%.0f docs/sec), %d commits, %d compactions, %d segments, %d probe reads\n",
		final.Ingested, final.Elapsed.Seconds(), final.DocsPerSec,
		final.Commits, final.Compactions, final.Segments, final.ProbeReads)
}

// pipelineConfig parameterizes the streaming pipeline (testable without flags).
type pipelineConfig struct {
	Seed     int64
	Vocab    int // world vocabulary size (0 = small test world)
	Concepts int
	Batch    int
	Probes   int
}

// pipeline owns the engine, the feed tail, the background compactor, and the
// read probes. One writer goroutine (run); compactor and probes run until
// stop.
type pipeline struct {
	engine *searchsim.Engine
	feed   *newsgen.Feed
	w      *world.World
	cfg    pipelineConfig

	start      time.Time
	commits    atomic.Int64
	probeReads atomic.Int64
	stopped    atomic.Bool
	wg         sync.WaitGroup
}

func newPipeline(cfg pipelineConfig) (*pipeline, error) {
	if cfg.Batch <= 0 {
		cfg.Batch = 64
	}
	w := world.New(world.Config{
		Seed:        cfg.Seed,
		VocabSize:   cfg.Vocab,
		NumConcepts: cfg.Concepts,
	})
	// BuildCorpus compresses the base corpus into the frozen base segment;
	// the engine it returns takes streamed appends like any other.
	e := searchsim.BuildCorpus(w, searchsim.CorpusConfig{Seed: cfg.Seed + 1})
	p := &pipeline{
		engine: e,
		feed:   newsgen.NewFeed(w, newsgen.Config{Seed: cfg.Seed + 2}, cfg.Batch),
		w:      w,
		cfg:    cfg,
		start:  time.Now(),
	}

	// Background compactor: fold eligible segment runs whenever they appear,
	// fanned out to GOMAXPROCS. Compact itself admits one compactor and never
	// blocks readers; the sleep just keeps the idle loop off the CPU.
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		for !p.stopped.Load() {
			if !p.engine.Compact(0) {
				time.Sleep(2 * time.Millisecond)
			}
		}
	}()

	// Read probes: steady concept-phrase queries against the live index —
	// the reads whose latency the two-tier design must protect. Paced like
	// request traffic (~1k reads/sec per probe) rather than spinning, so
	// the probes model a serving tier instead of a CPU saturation test.
	for i := 0; i < cfg.Probes; i++ {
		p.wg.Add(1)
		go func(i int) {
			defer p.wg.Done()
			for n := i; !p.stopped.Load(); n++ {
				name := w.Concepts[n%len(w.Concepts)].Name
				p.engine.ResultCount(name)
				if n%7 == 0 {
					p.engine.Search(name, 10)
				}
				p.probeReads.Add(1)
				time.Sleep(time.Millisecond)
			}
		}(i)
	}
	return p, nil
}

// run tails the feed until total docs have been ingested (0 = until stop).
// One Commit per batch publishes the appended docs to readers.
func (p *pipeline) run(total int) {
	ingested := 0
	for !p.stopped.Load() && (total <= 0 || ingested < total) {
		for _, story := range p.feed.NextBatch() {
			p.engine.Add(story.Text, story.Topic)
			ingested++
			if total > 0 && ingested >= total {
				break
			}
		}
		p.engine.Commit()
		p.commits.Add(1)
	}
}

func (p *pipeline) stop() { p.stopped.Store(true) }
func (p *pipeline) wait() { p.wg.Wait() }

// ingestStats is the /statz response: the engine's index accounting plus
// pipeline throughput.
type ingestStats struct {
	searchsim.IndexStats
	Elapsed    time.Duration `json:"-"`
	ElapsedSec float64       `json:"elapsed_sec"`
	DocsPerSec float64       `json:"ingest_docs_per_sec"`
	Commits    int64         `json:"commits"`
	ProbeReads int64         `json:"probe_reads"`
}

func (p *pipeline) snapshot() ingestStats {
	st := ingestStats{
		IndexStats: p.engine.Stats(),
		Elapsed:    time.Since(p.start),
		Commits:    p.commits.Load(),
		ProbeReads: p.probeReads.Load(),
	}
	st.ElapsedSec = st.Elapsed.Seconds()
	if st.ElapsedSec > 0 {
		st.DocsPerSec = float64(st.Ingested) / st.ElapsedSec
	}
	return st
}

func (p *pipeline) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /statz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(p.snapshot())
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
		io.WriteString(w, "ok\n")
	})
	return mux
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "error:", err)
	os.Exit(1)
}
