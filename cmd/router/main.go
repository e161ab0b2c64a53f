// Command router runs the cluster routing tier in front of cmd/serve
// -shard processes: it consistent-hashes /v1/annotate requests across the
// shard set with replica failover, hedged reads, per-shard circuit
// breakers, per-tenant quotas, and request coalescing (internal/cluster,
// DESIGN.md §8).
//
// Usage:
//
//	router -addr :8090 \
//	  -shards shard0=http://127.0.0.1:8081,shard1=http://127.0.0.1:8082,shard2=http://127.0.0.1:8083 \
//	  -replication 2 -seed 42
//
// Try it:
//
//	curl -s localhost:8090/healthz
//	curl -s localhost:8090/statz
//	curl -s -X POST localhost:8090/v1/annotate -d '{"text":"...","top":3}'
//
// Chaos flags (-chaos-*) enable the deterministic cluster fault planes:
// with a fixed -chaos-seed the same routed requests hit the same
// simulated shard crashes and slow replicas on every run, which is how
// the failover/hedge/breaker counters in /statz are asserted in CI.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"contextrank/internal/cluster"
	"contextrank/internal/resilience"
)

func main() {
	addr := flag.String("addr", ":8090", "listen address")
	shardsFlag := flag.String("shards", "", "comma-separated name=url shard list (required)")
	replication := flag.Int("replication", 2, "replicas per key range (failover depth)")
	seed := flag.Int64("seed", 42, "seed for breaker cooldowns and hedge jitter")

	requestTimeout := flag.Duration("request-timeout", 5*time.Second, "end-to-end budget per routed request, across all attempts (0 = none)")
	perTryTimeout := flag.Duration("per-try-timeout", 2*time.Second, "budget per shard attempt (0 = none)")
	hedgeDelay := flag.Duration("hedge-delay", 250*time.Millisecond, "base wait before hedging to the next replica (0 = hedging off)")
	hedgeJitter := flag.Duration("hedge-jitter", 100*time.Millisecond, "seeded jitter added to the hedge delay")

	breakerThreshold := flag.Int("breaker-threshold", 5, "consecutive failures that open a shard's breaker (0 = breakers off)")
	breakerMinSkip := flag.Int("breaker-min-skip", 4, "minimum requests shed per breaker cooldown")
	breakerMaxSkip := flag.Int("breaker-max-skip", 8, "maximum requests shed per breaker cooldown")

	quotaBurst := flag.Int("quota-burst", 0, "per-tenant token-bucket burst (0 = quotas disabled)")
	quotaRate := flag.Float64("quota-rate", 0, "per-tenant token refill rate per second (0 = pure burst budget)")

	probeInterval := flag.Duration("probe-interval", 2*time.Second, "health-probe round interval (0 = only POST /admin/probe drives rounds)")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second, "graceful-shutdown deadline after SIGTERM")

	chaosSeed := flag.Int64("chaos-seed", 1, "cluster fault-injection seed (used when any -chaos-*-p is > 0)")
	chaosDownP := flag.Float64("chaos-down-p", 0, "probability a routed request's primary attempt fails as a crashed shard")
	chaosSlowP := flag.Float64("chaos-slow-p", 0, "probability a routed request's primary attempt stalls for -chaos-slow-delay")
	chaosSlowDelay := flag.Duration("chaos-slow-delay", 5*time.Second, "injected slow-replica stall")
	chaosFlapP := flag.Float64("chaos-flap-p", 0, "probability one health probe of one shard is forced to fail")
	flag.Parse()

	shards, err := parseShards(*shardsFlag)
	if err != nil {
		fatal(err)
	}

	cfg := cluster.Config{
		Shards:           shards,
		Replication:      *replication,
		RequestTimeout:   *requestTimeout,
		PerTryTimeout:    *perTryTimeout,
		Seed:             *seed,
		BreakerThreshold: *breakerThreshold,
		BreakerMinSkip:   *breakerMinSkip,
		BreakerMaxSkip:   *breakerMaxSkip,
		HedgeDelay:       *hedgeDelay,
		HedgeJitter:      *hedgeJitter,
		Quota:            resilience.NewQuota(resilience.QuotaConfig{Burst: *quotaBurst, RatePerSec: *quotaRate}),
	}
	if *chaosDownP > 0 || *chaosSlowP > 0 || *chaosFlapP > 0 {
		cfg.Injector = resilience.NewInjector(resilience.InjectorConfig{
			Seed:             *chaosSeed,
			ShardDownP:       *chaosDownP,
			SlowReplicaP:     *chaosSlowP,
			SlowReplicaDelay: *chaosSlowDelay,
			FlapP:            *chaosFlapP,
		})
		fmt.Fprintf(os.Stderr, "cluster chaos enabled (seed %d)\n", *chaosSeed)
	}
	rt, err := cluster.New(cfg)
	if err != nil {
		fatal(err)
	}

	httpServer := resilience.NewHTTPServer(rt.Handler(), routerWriteTimeout(*requestTimeout))
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}

	stopProbes := startProbeLoop(rt, *probeInterval)
	defer stopProbes()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	fmt.Fprintf(os.Stderr, "routing on %s (%d shards, replication %d)\n", ln.Addr(), len(shards), *replication)
	if err := resilience.ServeUntilSignal(httpServer, ln, sig, *drainTimeout, &rt.Readiness, os.Stderr); err != nil {
		fatal(err)
	}
}

// parseShards turns "name=url,name=url" into the shard topology, keeping
// flag order (it defines each shard's breaker stream).
func parseShards(s string) ([]cluster.Shard, error) {
	if s == "" {
		return nil, errors.New("router: -shards is required (name=url,...)")
	}
	var out []cluster.Shard
	for _, part := range strings.Split(s, ",") {
		name, url, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok || name == "" || url == "" {
			return nil, fmt.Errorf("router: malformed shard %q, want name=url", part)
		}
		out = append(out, cluster.Shard{Name: name, URL: strings.TrimRight(url, "/")})
	}
	return out, nil
}

// routerWriteTimeout sizes the http.Server write deadline around the
// routed-request budget (failover chains and hedges all fit inside
// RequestTimeout, so one budget plus margin is enough).
func routerWriteTimeout(requestTimeout time.Duration) time.Duration {
	const floor = 30 * time.Second
	if budget := requestTimeout + 10*time.Second; budget > floor {
		return budget
	}
	return floor
}

// startProbeLoop runs health-probe rounds on a ticker until the returned
// stop function is called. interval <= 0 disables the loop: probe rounds
// then only happen via POST /admin/probe, which is how the deterministic
// multi-process tests drive them.
func startProbeLoop(rt *cluster.Router, interval time.Duration) (stop func()) {
	if interval <= 0 {
		return func() {}
	}
	done := make(chan struct{})
	go func() {
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-ticker.C:
				// The probe loop is a process-lifetime root: there is no
				// request context to thread into a background health check.
				ctx, cancel := context.WithTimeout(context.Background(), interval) //kwlint:ignore ctxflow — background probe loop has no caller context; bounded per round
				rt.ProbeAll(ctx)
				cancel()
			case <-done:
				return
			}
		}
	}()
	return func() { close(done) }
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "error:", err)
	os.Exit(1)
}
