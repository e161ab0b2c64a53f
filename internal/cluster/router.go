package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"contextrank/internal/resilience"
	"contextrank/internal/wire"
)

// Shard is one serving replica the router can route to: a name (the
// ring identity — stable across restarts) and the base URL of a
// cmd/serve -shard process.
type Shard struct {
	Name string
	URL  string
}

// Config parameterizes a Router.
type Config struct {
	// Shards is the topology, in ring-stream order: shard i draws its
	// breaker cooldowns from stream i.
	Shards []Shard
	// Replication is how many distinct replicas own each key range
	// (failover depth). Clamped to [1, len(Shards)]. Each shard has
	// DefaultVnodes points on the ring.
	Replication int

	// RequestTimeout bounds one routed request end to end, across all
	// failover and hedge attempts (0 = none). It bounds both the client's
	// wait and the coalesced forward, which runs detached from the client
	// that started it; at 0 the forward is bounded only by its attempts.
	RequestTimeout time.Duration
	// PerTryTimeout bounds each individual shard attempt (0 = none). A
	// per-try expiry is a genuine attempt failure: it trips failover and
	// feeds the shard's breaker.
	PerTryTimeout time.Duration

	// Seed fixes every router-side schedule: breaker cooldowns (per-shard
	// streams) and hedge jitter.
	Seed int64
	// BreakerThreshold opens a shard's breaker after that many consecutive
	// failures (0 = breakers disabled). Min/MaxSkip bound the seeded
	// request-count cooldowns (defaults 4 and 8).
	BreakerThreshold int
	BreakerMinSkip   int
	BreakerMaxSkip   int
	// HedgeDelay is the base wait before duplicating a read to the next
	// replica (0 = hedging disabled); HedgeJitter is the seeded spread
	// added on top.
	HedgeDelay  time.Duration
	HedgeJitter time.Duration

	// Quota meters /v1/annotate before any routing work (nil = disabled);
	// Quota.Admit states the contract.
	Quota *resilience.Quota
	// Injector plans router-side chaos — simulated shard crashes, slow
	// replicas, flapping health probes (nil = no injection).
	Injector *resilience.Injector

	// Client performs shard attempts. Defaults to http.DefaultClient.
	Client resilience.Doer
}

// Counters aggregates the router's resilience events. All fields are
// atomics: they are bumped from concurrent request goroutines. Each
// counter's value after a seeded chaos run is exactly predictable from
// the injector's plan (see cmd/router's differential test).
type Counters struct {
	// Requests counts routed requests admitted past the quota.
	Requests atomic.Int64
	// Coalesced counts requests that waited on another in-flight routed
	// request with the same cache key instead of forwarding.
	Coalesced atomic.Int64
	// Failovers counts failed attempts that launched the next replica.
	Failovers atomic.Int64
	// Hedges counts hedge attempts launched; HedgeWins counts routed
	// requests answered by a hedge rather than the primary.
	Hedges    atomic.Int64
	HedgeWins atomic.Int64
	// BreakerSkips counts replica candidates shed by an open breaker;
	// BreakerProbes counts half-open probe attempts launched.
	BreakerSkips  atomic.Int64
	BreakerProbes atomic.Int64
	// HealthSkips counts replica candidates skipped because the last
	// probe round marked them unhealthy.
	HealthSkips atomic.Int64
	// ReplicasExhausted counts requests that ran out of replicas (503).
	ReplicasExhausted atomic.Int64
	// Timeouts counts requests whose overall budget expired (504).
	Timeouts atomic.Int64
	// InjectedDowns / InjectedSlows / InjectedFlaps count the cluster
	// faults the injector planned and the router applied.
	InjectedDowns atomic.Int64
	InjectedSlows atomic.Int64
	InjectedFlaps atomic.Int64
}

// CountersSnapshot is the JSON view of Counters, embedded in /statz.
type CountersSnapshot struct {
	Requests          int64 `json:"requests"`
	Coalesced         int64 `json:"coalesced"`
	Failovers         int64 `json:"failovers"`
	Hedges            int64 `json:"hedges"`
	HedgeWins         int64 `json:"hedge_wins"`
	BreakerSkips      int64 `json:"breaker_skips"`
	BreakerProbes     int64 `json:"breaker_probes"`
	HealthSkips       int64 `json:"health_skips"`
	ReplicasExhausted int64 `json:"replicas_exhausted"`
	Timeouts          int64 `json:"timeouts"`
	InjectedDowns     int64 `json:"injected_downs"`
	InjectedSlows     int64 `json:"injected_slows"`
	InjectedFlaps     int64 `json:"injected_flaps"`
}

// Snapshot reads every counter once (a monitoring view, not a ledger).
func (c *Counters) Snapshot() CountersSnapshot {
	return CountersSnapshot{
		Requests:          c.Requests.Load(),
		Coalesced:         c.Coalesced.Load(),
		Failovers:         c.Failovers.Load(),
		Hedges:            c.Hedges.Load(),
		HedgeWins:         c.HedgeWins.Load(),
		BreakerSkips:      c.BreakerSkips.Load(),
		BreakerProbes:     c.BreakerProbes.Load(),
		HealthSkips:       c.HealthSkips.Load(),
		ReplicasExhausted: c.ReplicasExhausted.Load(),
		Timeouts:          c.Timeouts.Load(),
		InjectedDowns:     c.InjectedDowns.Load(),
		InjectedSlows:     c.InjectedSlows.Load(),
		InjectedFlaps:     c.InjectedFlaps.Load(),
	}
}

// shardState is the router's per-shard runtime state.
type shardState struct {
	shard   Shard
	breaker *resilience.Breaker
	healthy atomic.Bool
}

// routedResponse is the final outcome of one routed request, shared
// verbatim with every coalesced follower.
type routedResponse struct {
	status      int
	contentType string
	retryAfter  string
	body        []byte
}

// attemptResult is one shard attempt's outcome.
type attemptResult struct {
	res    routedResponse
	err    error
	hedged bool // launched by the hedge timer, not by failover
}

// Router consistent-hashes /v1/annotate requests across shard processes
// with replica failover, hedged reads, per-shard circuit breakers, and
// request coalescing. It holds no request state beyond in-flight
// bookkeeping — see the package comment for the determinism contract.
type Router struct {
	cfg    Config
	ring   *Ring
	shards []*shardState
	hs     *resilience.HedgeSchedule // nil = hedging disabled

	// flights coalesces identical requests; its id is the raw body.
	flights resilience.Flights[uint64, routedResponse]

	// Readiness is the /readyz state; cmd/router flips it off when a drain
	// begins.
	resilience.Readiness

	probeRound atomic.Int64
	counters   Counters
	rz         resilience.Counters // panic recovery and quota accounting
}

// New builds a router over cfg.Shards. At start every shard is healthy;
// the first probe round (ProbeAll, or POST /admin/probe) refreshes that.
func New(cfg Config) (*Router, error) {
	if len(cfg.Shards) == 0 {
		return nil, errors.New("cluster: no shards configured")
	}
	if cfg.Replication <= 0 {
		cfg.Replication = 1
	}
	if cfg.Replication > len(cfg.Shards) {
		cfg.Replication = len(cfg.Shards)
	}
	names := make([]string, len(cfg.Shards))
	for i, s := range cfg.Shards {
		if s.Name == "" || s.URL == "" {
			return nil, fmt.Errorf("cluster: shard %d needs both name and url", i)
		}
		names[i] = s.Name
	}
	rt := &Router{
		cfg:  cfg,
		ring: NewRing(names, DefaultVnodes),
		hs:   resilience.NewHedgeSchedule(cfg.HedgeDelay, cfg.HedgeJitter, cfg.Seed),
	}
	for i, s := range cfg.Shards {
		st := &shardState{shard: s}
		st.healthy.Store(true)
		st.breaker = resilience.NewBreaker(resilience.BreakerConfig{
			Threshold: cfg.BreakerThreshold,
			MinSkip:   cfg.BreakerMinSkip,
			MaxSkip:   cfg.BreakerMaxSkip,
			Seed:      cfg.Seed,
			Stream:    i,
		})
		rt.shards = append(rt.shards, st)
	}
	return rt, nil
}

func (rt *Router) client() resilience.Doer {
	if rt.cfg.Client != nil {
		return rt.cfg.Client
	}
	return http.DefaultClient
}

// Handler returns the routed handler wrapped in panic recovery.
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/annotate", rt.handleAnnotate)
	rt.Readiness.MountProbes(mux, nil) // a failed probe write is the prober's to see
	mux.HandleFunc("GET /statz", rt.handleStats)
	mux.HandleFunc("POST /admin/probe", rt.handleProbe)
	return resilience.Recover(&rt.rz, mux)
}

// StatzShard is the per-shard block of the router's /statz.
type StatzShard struct {
	Name         string `json:"name"`
	Healthy      bool   `json:"healthy"`
	BreakerState string `json:"breaker_state"`
	BreakerOpens int64  `json:"breaker_opens"`
}

// Statz is the router's /statz document.
type Statz struct {
	Router       CountersSnapshot    `json:"router"`
	Shards       []StatzShard        `json:"shards"`
	QuotaTenants int                 `json:"quota_tenants,omitempty"`
	Resilience   resilience.Snapshot `json:"resilience"`
}

func (rt *Router) statz() Statz {
	st := Statz{Router: rt.counters.Snapshot(), QuotaTenants: rt.cfg.Quota.Tenants(), Resilience: rt.rz.Snapshot()}
	for _, s := range rt.shards {
		st.Shards = append(st.Shards, StatzShard{
			Name:         s.shard.Name,
			Healthy:      s.healthy.Load(),
			BreakerState: s.breaker.State().String(),
			BreakerOpens: s.breaker.Opens(),
		})
	}
	return st
}

func (rt *Router) handleStats(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(rt.statz()) // client gone mid-write: nothing to do
}

// ProbeResult is one probe round's outcome, returned by /admin/probe.
type ProbeResult struct {
	Round   int64  `json:"round"`
	Healthy []bool `json:"healthy"`
}

// ProbeAll runs one health-probe round: GET /healthz on every shard,
// flipping each shard's healthy bit. Rounds are numbered in call order;
// the chaos injector's FlapAt(round, shard) can force individual probes
// to fail, and tests replay that pure function to predict exact
// health-skip behaviour. cmd/router drives rounds from a ticker; tests
// drive them explicitly over POST /admin/probe.
func (rt *Router) ProbeAll(ctx context.Context) ProbeResult {
	round := rt.probeRound.Add(1) - 1
	res := ProbeResult{Round: round, Healthy: make([]bool, len(rt.shards))}
	for i, s := range rt.shards {
		ok := rt.probeOne(ctx, s)
		if ok && rt.cfg.Injector != nil && rt.cfg.Injector.FlapAt(int(round), i) {
			rt.counters.InjectedFlaps.Add(1)
			ok = false
		}
		s.healthy.Store(ok)
		res.Healthy[i] = ok
	}
	return res
}

// probeTimeout bounds one health probe: long enough for a loaded shard
// to answer /healthz, short enough that a dead one fails the round.
const probeTimeout = 2 * time.Second

func (rt *Router) probeOne(ctx context.Context, s *shardState) bool {
	pctx, cancel := context.WithTimeout(ctx, probeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(pctx, http.MethodGet, s.shard.URL+"/healthz", nil)
	if err != nil {
		return false
	}
	resp, err := rt.client().Do(req)
	if err != nil {
		return false
	}
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<10))
	_ = resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

func (rt *Router) handleProbe(w http.ResponseWriter, r *http.Request) {
	res := rt.ProbeAll(r.Context())
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(res) // client gone mid-write: nothing to do
}

func (rt *Router) handleAnnotate(w http.ResponseWriter, r *http.Request) {
	tenant := r.Header.Get(wire.TenantHeader)
	if !rt.cfg.Quota.Admit(w, tenant, &rt.rz.QuotaDenied) {
		return
	}
	// The body is not pooled: the detached forward, or a losing hedge
	// attempt, may still be sending it after this handler returns.
	body, ok := wire.ReadBody(w, r, nil)
	if !ok {
		return
	}
	rt.counters.Requests.Add(1)

	ctx := r.Context()
	if rt.cfg.RequestTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, rt.cfg.RequestTimeout)
		defer cancel()
	}

	// Route and coalesce on the key the owning shard's cache will compute.
	key := wire.RouteKey(body)
	res, err := rt.flights.Do(ctx, key, string(body), rt.cfg.RequestTimeout, &rt.counters.Coalesced, &rt.rz.PanicsRecovered, func(fctx context.Context) routedResponse {
		return rt.forward(fctx, key, body, tenant)
	})
	if errors.Is(err, resilience.ErrFlightPanicked) {
		resilience.InternalError(w)
		return
	}
	if err != nil { // this caller's own budget expired, or its client left
		res = errorResponse(http.StatusGatewayTimeout, "router budget exhausted")
	}
	// The one place a timeout is counted: forward answers 504 only when its
	// budget ran out (a shard's 504 fails over).
	if res.status == http.StatusGatewayTimeout {
		rt.counters.Timeouts.Add(1)
	}
	writeRouted(w, res)
}

// candidates returns the replica set for key in failover order, dropping
// shards the last probe round marked unhealthy.
func (rt *Router) candidates(key uint64) []*shardState {
	idxs := rt.ring.Replicas(key, rt.cfg.Replication)
	out := make([]*shardState, 0, len(idxs))
	for _, i := range idxs {
		s := rt.shards[i]
		if !s.healthy.Load() {
			rt.counters.HealthSkips.Add(1)
			continue
		}
		out = append(out, s)
	}
	return out
}

// forward routes one request: primary attempt (with any planned chaos),
// hedge on the seeded delay, failover on failure, breaker consultation at
// every launch. Exactly one response is returned; losing attempts are
// cancelled via the shared attempt context.
func (rt *Router) forward(ctx context.Context, key uint64, body []byte, tenant string) routedResponse {
	cands := rt.candidates(key)
	if len(cands) == 0 {
		rt.counters.ReplicasExhausted.Add(1)
		return errorResponse(http.StatusServiceUnavailable, "no healthy replicas")
	}

	var plan resilience.ClusterFaultPlan
	if rt.cfg.Injector != nil {
		plan = rt.cfg.Injector.ClusterPlan()
		if plan.DownPrimary {
			rt.counters.InjectedDowns.Add(1)
		}
		if plan.SlowPrimary {
			rt.counters.InjectedSlows.Add(1)
		}
	}

	actx, cancel := context.WithCancel(ctx)
	defer cancel() // reaps the losing duplicate after a hedge win

	results := make(chan attemptResult, len(cands))
	nextCand := 0
	first := true
	inFlight := 0
	// launch starts the next candidate that its breaker admits. Chaos
	// applies only to the very first launched attempt (the "primary").
	launch := func(hedged bool) bool {
		for nextCand < len(cands) {
			c := cands[nextCand]
			nextCand++
			probe := false
			switch c.breaker.Allow() {
			case resilience.BreakerSkip:
				rt.counters.BreakerSkips.Add(1)
				continue
			case resilience.BreakerProbe:
				rt.counters.BreakerProbes.Add(1)
				probe = true
			}
			var p resilience.ClusterFaultPlan
			if first {
				p = plan
				first = false
			}
			inFlight++
			go rt.attempt(actx, c, p, probe, hedged, body, tenant, results)
			return true
		}
		return false
	}

	if !launch(false) {
		rt.counters.ReplicasExhausted.Add(1)
		return errorResponse(http.StatusServiceUnavailable, "all replicas shed by breakers")
	}

	var hedgeC <-chan time.Time
	if hs := rt.hs; hs != nil && len(cands) > 1 {
		timer := time.NewTimer(hs.Next())
		defer timer.Stop()
		hedgeC = timer.C
	}

	for {
		select {
		case res := <-results:
			inFlight--
			if res.err == nil && !retryableStatus(res.res.status) {
				if res.hedged {
					rt.counters.HedgeWins.Add(1)
				}
				return res.res
			}
			// Genuine attempt failure: fail over to the next replica.
			if launch(false) {
				rt.counters.Failovers.Add(1)
				continue
			}
			if inFlight > 0 {
				continue // a hedge is still running; let it finish
			}
			rt.counters.ReplicasExhausted.Add(1)
			return errorResponse(http.StatusServiceUnavailable, "all replicas failed")
		case <-hedgeC:
			hedgeC = nil
			if launch(true) {
				rt.counters.Hedges.Add(1)
			}
		case <-ctx.Done():
			return errorResponse(http.StatusGatewayTimeout, "router budget exhausted")
		}
	}
}

// retryableStatus is the failover policy: overload shedding and
// server-side failures fail over; everything else is a final answer the
// client must see (including the shard's own 4xx semantics).
func retryableStatus(code int) bool {
	switch code {
	case http.StatusTooManyRequests, http.StatusInternalServerError,
		http.StatusBadGateway, http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return true
	}
	return false
}

// attempt performs one shard try: apply the chaos plan (primary only),
// forward the raw body with the remaining deadline budget, read the
// response, and feed the shard's breaker. Breaker feedback happens here —
// in the attempt goroutine, not the select loop — so a late result whose
// request already returned still updates breaker state instead of
// wedging it. A panic in the try (a Doer's, say) is recovered, counted and
// reported as a failed attempt, so the request fails over: the attempt
// goroutine is out of reach of the handler's Recover.
func (rt *Router) attempt(ctx context.Context, s *shardState, plan resilience.ClusterFaultPlan, probe, hedged bool, body []byte, tenant string, results chan<- attemptResult) {
	fail := func(err error) {
		// Cancellation is not evidence about the shard: the hedge won or
		// the request's budget expired. A cancelled probe re-arms the
		// breaker instead of counting as success or failure.
		if ctx.Err() != nil {
			if probe {
				s.breaker.OnCanceledProbe()
			}
		} else {
			s.breaker.OnFailure()
		}
		results <- attemptResult{err: err, hedged: hedged}
	}
	defer func() {
		if rec := recover(); rec != nil {
			rt.rz.PanicsRecovered.Add(1)
			fail(fmt.Errorf("cluster: attempt on %s panicked: %v", s.shard.Name, rec))
		}
	}()

	if plan.DownPrimary {
		// Simulated crashed shard: indistinguishable from a refused
		// connection, so it takes the exact failure path a real crash does.
		fail(errors.New("cluster: injected shard down"))
		return
	}
	if plan.SlowPrimary {
		delay := rt.cfg.Injector.Config().SlowReplicaDelay
		timer := time.NewTimer(delay)
		select {
		case <-timer.C:
		case <-ctx.Done():
			timer.Stop()
			fail(ctx.Err())
			return
		}
		timer.Stop()
	}

	tryCtx := ctx
	if rt.cfg.PerTryTimeout > 0 {
		var cancel context.CancelFunc
		tryCtx, cancel = context.WithTimeout(ctx, rt.cfg.PerTryTimeout)
		defer cancel()
	}
	req, err := http.NewRequestWithContext(tryCtx, http.MethodPost, s.shard.URL+"/v1/annotate", bytes.NewReader(body))
	if err != nil {
		fail(err)
		return
	}
	req.Header.Set("Content-Type", "application/json")
	if tenant != "" {
		req.Header.Set(wire.TenantHeader, tenant)
	}
	if dl, ok := ctx.Deadline(); ok {
		if ms := time.Until(dl).Milliseconds(); ms > 0 {
			req.Header.Set(wire.DeadlineHeader, strconv.FormatInt(ms, 10))
		}
	}
	resp, err := rt.client().Do(req)
	if err != nil {
		fail(err)
		return
	}
	respBody, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if err != nil {
		fail(err)
		return
	}
	out := routedResponse{
		status:      resp.StatusCode,
		contentType: resp.Header.Get("Content-Type"),
		retryAfter:  resp.Header.Get("Retry-After"),
		body:        respBody,
	}
	if retryableStatus(out.status) {
		if ctx.Err() != nil && probe {
			s.breaker.OnCanceledProbe()
		} else {
			s.breaker.OnFailure()
		}
	} else {
		s.breaker.OnSuccess()
	}
	results <- attemptResult{res: out, hedged: hedged}
}

func errorResponse(status int, msg string) routedResponse {
	return routedResponse{
		status:      status,
		contentType: "text/plain; charset=utf-8",
		retryAfter:  resilience.RetryAfterHint,
		body:        []byte(msg + "\n"),
	}
}

// writeRouted relays a routed response: status, the headers the serving
// contract defines (Content-Type, Retry-After), and the body verbatim —
// the byte-identity guarantee of the differential tests rides on the body
// passing through untouched.
func writeRouted(w http.ResponseWriter, res routedResponse) {
	if res.contentType != "" {
		w.Header().Set("Content-Type", res.contentType)
	}
	if res.retryAfter != "" && (res.status == http.StatusTooManyRequests || res.status == http.StatusServiceUnavailable || res.status == http.StatusGatewayTimeout) {
		w.Header().Set("Retry-After", res.retryAfter)
	}
	w.WriteHeader(res.status)
	_, _ = w.Write(res.body) // client gone mid-relay: nothing to do
}
