package main

import (
	"time"

	"contextrank"
)

// clients is the closed-loop client count: callers of an annotator wait
// for the reply, and two is nproc on the box this was sized on. A
// constant, not a flag, so every run offers the same load.
const clients = 2

// topN is the "top" of every request: the paper's production setting.
const topN = 3

// Defaults copied from cmd/serve and cmd/router. The harness wires the
// in-process servers the way those commands wire theirs; a changed default
// there must be mirrored here (README lists them for review).
const (
	serveRequestTimeout = 2 * time.Second        // cmd/serve -request-timeout
	serveMaxInflight    = 64                     // cmd/serve -max-inflight
	serveQueueLen       = 32                     // cmd/serve -queue
	serveQueueWait      = 100 * time.Millisecond // cmd/serve -queue-wait
	serveCacheSize      = 1024                   // cmd/serve -cache-size
	serveFillTimeout    = 5 * time.Second        // cmd/serve: max(2*request-timeout, serve.DefaultFillTimeout)

	routerShards           = 3
	routerReplication      = 2                      // cmd/router -replication
	routerRequestTimeout   = 5 * time.Second        // cmd/router -request-timeout
	routerPerTryTimeout    = 2 * time.Second        // cmd/router -per-try-timeout
	routerHedgeDelay       = 250 * time.Millisecond // cmd/router -hedge-delay
	routerHedgeJitter      = 100 * time.Millisecond // cmd/router -hedge-jitter
	routerBreakerThreshold = 5                      // cmd/router -breaker-threshold
	routerBreakerMinSkip   = 4                      // cmd/router -breaker-min-skip
	routerBreakerMaxSkip   = 8                      // cmd/router -breaker-max-skip

	httpReadHeaderTimeout = 5 * time.Second   // both commands' http.Server
	httpReadTimeout       = 15 * time.Second  // both
	httpWriteTimeout      = 30 * time.Second  // both: the floor of writeTimeout/routerWriteTimeout
	httpIdleTimeout       = 120 * time.Second // both
)

// ingestBatch is the feed batch per Commit, cmd/ingest's -batch default.
const ingestBatch = 64

// zipfS is the skew of the two Zipf workloads.
const zipfS = 1.1

// verifyEvery is the stride of fully parsed responses in the timed phase.
const verifyEvery = 64

// sizing fixes how much of everything one run uses. Two instances exist:
// benchSizing for the command and testSizing for go test.
type sizing struct {
	// config builds the system configuration for a seed.
	config func(seed int64) contextrank.Config
	// setups is how many times the whole offline pipeline is built; setup_s
	// is the median and the last build serves.
	setups int

	// Document pools per workload (see workloads.go for how each is used).
	missPool    int // serve-miss: cycled in order, larger than the cache
	hotPool     int // serve-hot: fits one cache
	clusterPool int // cluster-zipf: fits three shard caches, not one
	renderPool  int // render-ingest: cycled in order by the render client
	ingestPool  int // stories the writer cycles through
	// ingestCatchUp is how many stories every set-up ingests into its
	// fresh engine, outside setup_s, before serving.
	ingestCatchUp int

	// warmMiss and warmRender are the count-based warm-up lengths of the
	// two cycling workloads; the Zipf workloads warm by sweeping their pool.
	warmMiss, warmRender int
	// verifyPrefix is how many of each client's first responses are
	// compared field-for-field with the runtime called directly and scored
	// for precision_at_top.
	verifyPrefix int
	// replayDocs bounds the serial replay sample of a traced run.
	replayDocs int
	// microIters is the iteration count of the three micro timings
	// (Cache.Do hit, Gate acquire/release, Ring.Replicas).
	microIters int
}

// The command runs at paper scale. ISSUE 13 sized the benchmark at four
// times that (one set-up about 9 s), but the driver's cap of 92 runs in
// 3,420 s leaves 37 s a run on a box that is at times 30% slower than at
// others, and set-up has to be repeated for a median: three set-ups at 4x
// would be the whole run. Paper scale is also the scale of every number in
// BENCH.json.
var benchSizing = sizing{
	config:        contextrank.PaperConfig,
	setups:        3,
	missPool:      4096,
	hotPool:       512,
	clusterPool:   4096,
	renderPool:    2048,
	ingestPool:    4096,
	ingestCatchUp: 2048,
	warmMiss:      1024,
	warmRender:    512,
	verifyPrefix:  256,
	replayDocs:    2000,
	microIters:    200000,
}

var testSizing = sizing{
	config:        contextrank.SmallConfig,
	setups:        1,
	missPool:      2048, // still well over the 1,024-entry cache
	hotPool:       64,
	clusterPool:   160,
	renderPool:    64,
	ingestPool:    256,
	ingestCatchUp: 128,
	warmMiss:      64,
	warmRender:    32,
	verifyPrefix:  32,
	replayDocs:    40,
	microIters:    2000,
}
