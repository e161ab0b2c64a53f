package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"time"

	"contextrank/internal/cluster"
	"contextrank/internal/resilience"
	"contextrank/internal/serve"
)

// node is one in-process HTTP server on a loopback listener.
type node struct {
	url  string
	srv  *serve.Server // nil for the router
	hs   *http.Server
	ln   net.Listener
	done chan error // Serve's return value
}

// topology is everything a run listens on: one stand-alone server (with
// the renderer) for the serve-* and render-ingest workloads, and three
// shard-mode servers behind a router for cluster-zipf. All of it is
// started on every run so there is one set-up path; servers a workload
// does not address stay idle.
type topology struct {
	single    *node
	shards    []*node
	router    *node
	rt        *cluster.Router
	transport *http.Transport
	client    *http.Client
}

// newServer wires a serve.Server with cmd/serve's defaults.
func newServer(s *system, shard bool) *serve.Server {
	var srv *serve.Server
	if shard {
		srv = serve.NewServer(s.rt, nil)
	} else {
		srv = serve.NewServer(s.rt, s.renderer)
	}
	srv.Timeout = serveRequestTimeout
	srv.Gate = resilience.NewGate(serveMaxInflight, serveQueueLen, serveQueueWait)
	srv.Cache = serve.NewCache(serveCacheSize)
	srv.Cache.FillTimeout = serveFillTimeout
	srv.IndexStats = s.inner.Engine.Stats
	srv.IndexEpoch = s.inner.Engine.Epoch
	srv.TrustForwardedDeadline = shard
	return srv
}

func listen(h http.Handler) (*node, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	n := &node{
		url: "http://" + ln.Addr().String(),
		ln:  ln,
		hs: &http.Server{
			Handler:           h,
			ReadHeaderTimeout: httpReadHeaderTimeout,
			ReadTimeout:       httpReadTimeout,
			WriteTimeout:      httpWriteTimeout,
			IdleTimeout:       httpIdleTimeout,
		},
		done: make(chan error, 1),
	}
	go func() { n.done <- n.hs.Serve(ln) }()
	return n, nil
}

// startTopology brings every listener up. On error it closes what it
// opened.
func startTopology(s *system, seed int64) (*topology, error) {
	tr := &http.Transport{MaxIdleConns: 64, MaxIdleConnsPerHost: 16, IdleConnTimeout: httpIdleTimeout}
	t := &topology{transport: tr, client: &http.Client{Transport: tr}}
	ok := false
	defer func() {
		if !ok {
			t.stop()
		}
	}()

	srv := newServer(s, false)
	n, err := listen(srv.Handler())
	if err != nil {
		return nil, err
	}
	n.srv = srv
	t.single = n

	var shards []cluster.Shard
	for i := 0; i < routerShards; i++ {
		srv := newServer(s, true)
		n, err := listen(srv.Handler())
		if err != nil {
			return nil, err
		}
		n.srv = srv
		t.shards = append(t.shards, n)
		shards = append(shards, cluster.Shard{Name: fmt.Sprintf("shard%d", i), URL: n.url})
	}
	rt, err := cluster.New(cluster.Config{
		Shards:           shards,
		Replication:      routerReplication,
		RequestTimeout:   routerRequestTimeout,
		PerTryTimeout:    routerPerTryTimeout,
		Seed:             seed,
		BreakerThreshold: routerBreakerThreshold,
		BreakerMinSkip:   routerBreakerMinSkip,
		BreakerMaxSkip:   routerBreakerMaxSkip,
		HedgeDelay:       routerHedgeDelay,
		HedgeJitter:      routerHedgeJitter,
		Client:           t.client,
	})
	if err != nil {
		return nil, err
	}
	t.rt = rt
	if t.router, err = listen(rt.Handler()); err != nil {
		return nil, err
	}
	ok = true
	return t, nil
}

func (t *topology) nodes() []*node {
	var out []*node
	if t.router != nil {
		out = append(out, t.router)
	}
	out = append(out, t.shards...)
	if t.single != nil {
		out = append(out, t.single)
	}
	return out
}

// stop drains every server, waits for each Serve goroutine to return and
// drops the client's idle connections. Safe on a partly started topology.
func (t *topology) stop() error {
	var first error
	for _, n := range t.nodes() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		if err := n.hs.Shutdown(ctx); err != nil {
			_ = n.hs.Close() // drain timed out: drop the connections
			if first == nil {
				first = fmt.Errorf("shutdown %s: %w", n.url, err)
			}
		}
		cancel()
		if err := <-n.done; err != nil && !errors.Is(err, http.ErrServerClosed) && first == nil {
			first = err
		}
	}
	t.transport.CloseIdleConnections()
	return first
}
