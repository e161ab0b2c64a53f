// Command serve runs the Contextual Shortcuts annotation service: it builds
// (or loads) the offline bundle, assembles the production runtime and
// serves the HTTP API from internal/serve behind the resilience layer —
// per-request deadlines, admission control, panic recovery, graceful
// degradation, and SIGTERM-driven draining.
//
// Usage:
//
//	serve -addr :8080                 # build a small world, train, serve
//	serve -bundle bundle.bin          # load a bundle written by offline train -o
//
// Try it:
//
//	curl -s localhost:8080/healthz
//	curl -s localhost:8080/readyz
//	curl -s -X POST localhost:8080/v1/annotate -d '{"text":"...","top":3}'
//
// Chaos flags (-chaos-*) enable deterministic fault injection: with a
// fixed -chaos-seed the exact same requests hit the exact same faults on
// every run, which is how the recovery counters in /statz are asserted in
// CI.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"contextrank"
	"contextrank/internal/annotate"
	"contextrank/internal/resilience"
	"contextrank/internal/searchsim"
	"contextrank/internal/serve"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	seed := flag.Int64("seed", 42, "world seed")
	bundlePath := flag.String("bundle", "", "load the offline bundle from this file instead of training")

	requestTimeout := flag.Duration("request-timeout", 2*time.Second, "per-request annotation deadline (0 = none)")
	maxInflight := flag.Int("max-inflight", 64, "admission gate: max concurrent annotation requests")
	queueLen := flag.Int("queue", 32, "admission gate: wait-queue length beyond the in-flight bound")
	queueWait := flag.Duration("queue-wait", 100*time.Millisecond, "admission gate: max time a request waits for a slot")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second, "graceful-shutdown deadline after SIGTERM")
	cacheSize := flag.Int("cache-size", 1024, "annotation response cache capacity in entries (0 = disabled)")
	shardMode := flag.Bool("shard", false, "run as a cluster shard behind cmd/router: trust the router's X-Deadline-Ms budget")
	quotaBurst := flag.Int("quota-burst", 0, "per-tenant token-bucket burst (0 = quotas disabled)")
	quotaRate := flag.Float64("quota-rate", 0, "per-tenant token refill rate per second (0 = pure burst budget)")
	pprofAddr := flag.String("pprof-addr", "", "if set, expose net/http/pprof on this separate listener (e.g. localhost:6060); never exposed on the serving address")

	chaosSeed := flag.Int64("chaos-seed", 1, "fault-injection seed (used when any -chaos-*-p is > 0)")
	chaosLatencyP := flag.Float64("chaos-latency-p", 0, "probability of an injected latency spike per request")
	chaosSpike := flag.Duration("chaos-spike", 250*time.Millisecond, "injected latency spike duration")
	chaosPanicP := flag.Float64("chaos-panic-p", 0, "probability of an injected handler panic per request")
	chaosWriteP := flag.Float64("chaos-writefail-p", 0, "probability of an injected response-write failure per request")
	flag.Parse()

	fmt.Fprintln(os.Stderr, "building world...")
	sys := contextrank.Build(contextrank.SmallConfig(*seed))

	var ranker *contextrank.Ranker
	var err error
	if *bundlePath != "" {
		f, err2 := os.Open(*bundlePath)
		if err2 != nil {
			fatal(err2)
		}
		ranker, err = sys.LoadBundle(f)
		f.Close()
	} else {
		fmt.Fprintln(os.Stderr, "training ranker...")
		ranker, err = sys.TrainRanker()
	}
	if err != nil {
		fatal(err)
	}

	inner := sys.Internal()
	suggestor := searchsim.NewSuggestor(inner.Log)
	renderer := annotate.NewRenderer(&annotate.DefaultProvider{
		Snippets: inner.Engine.Snippets,
		Related: func(q string, max int) []string {
			var out []string
			for _, s := range suggestor.Suggest(q, max) {
				out = append(out, s.Text)
			}
			return out
		},
		ArticleWords: inner.Wiki.WordCount,
	})

	srv := serve.NewServer(ranker.Runtime(), renderer)
	srv.Timeout = *requestTimeout
	srv.Gate = resilience.NewGate(*maxInflight, *queueLen, *queueWait)
	srv.Cache = serve.NewCache(*cacheSize)
	if srv.Cache != nil {
		srv.Cache.FillTimeout = cacheFillTimeout(*requestTimeout)
	}
	srv.IndexStats = inner.Engine.Stats
	srv.IndexEpoch = inner.Engine.Epoch
	srv.TrustForwardedDeadline = *shardMode
	srv.Quota = resilience.NewQuota(resilience.QuotaConfig{Burst: *quotaBurst, RatePerSec: *quotaRate})

	if *pprofAddr != "" {
		stop, err := startPprof(*pprofAddr, os.Stderr)
		if err != nil {
			fatal(err)
		}
		defer stop()
	}
	if *chaosLatencyP > 0 || *chaosPanicP > 0 || *chaosWriteP > 0 {
		srv.Injector = resilience.NewInjector(resilience.InjectorConfig{
			Seed:         *chaosSeed,
			LatencyP:     *chaosLatencyP,
			LatencySpike: *chaosSpike,
			PanicP:       *chaosPanicP,
			WriteFailP:   *chaosWriteP,
		})
		fmt.Fprintf(os.Stderr, "chaos injection enabled (seed %d)\n", *chaosSeed)
	}

	httpServer := resilience.NewHTTPServer(srv.Handler(), writeTimeout(*requestTimeout, *queueWait))
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	fmt.Fprintf(os.Stderr, "serving on %s\n", ln.Addr())
	if err := resilience.ServeUntilSignal(httpServer, ln, sig, *drainTimeout, &srv.Readiness, os.Stderr); err != nil {
		fatal(err)
	}
}

// startPprof serves net/http/pprof on its own listener and mux, so the
// profiling surface shares nothing with the public serving address (no
// resilience chain, no chaos injection, and crucially no public exposure —
// bind it to localhost). Returns a closer that tears the listener down.
func startPprof(addr string, logw io.Writer) (func(), error) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("pprof listener: %w", err)
	}
	server := &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	go func() {
		if err := server.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(logw, "pprof server: %v\n", err)
		}
	}()
	fmt.Fprintf(logw, "pprof on http://%s/debug/pprof/\n", ln.Addr())
	return func() { server.Close() }, nil
}

// cacheFillTimeout sizes the detached cache-fill bound: twice the request
// deadline (a fill that two full request budgets cannot finish is not
// worth keeping alive) with the package default as the floor.
func cacheFillTimeout(requestTimeout time.Duration) time.Duration {
	if derived := 2 * requestTimeout; derived > serve.DefaultFillTimeout {
		return derived
	}
	return serve.DefaultFillTimeout
}

// writeTimeout sizes the http.Server write deadline around the worst
// admitted request — queue wait + request deadline + degraded fallback +
// response write — so the server-level timeout never fires before the
// application deadline has had a chance to degrade gracefully.
func writeTimeout(requestTimeout, queueWait time.Duration) time.Duration {
	const floor = 30 * time.Second
	if budget := 2*requestTimeout + queueWait + 5*time.Second; budget > floor {
		return budget
	}
	return floor
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "error:", err)
	os.Exit(1)
}
