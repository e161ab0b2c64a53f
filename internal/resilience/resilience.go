// Package resilience is the runtime-hardening layer of the serving stack:
// the machinery that lets the annotation service survive the production
// conditions the paper's deployment implies ("successfully deployed on
// various Yahoo! network properties") — slow requests, overload, handler
// panics, and flaky clients — without taking down the process or serving
// garbage.
//
// It is composed of small, independently testable pieces:
//
//   - Gate: bounded-concurrency admission control with a short wait queue.
//     Excess load is shed immediately instead of queueing without bound.
//   - Recover / Chaos: http middleware. Recover converts handler panics to
//     500s plus a counter; Chaos injects faults (latency spikes, panics,
//     write failures) from a deterministic, seeded Injector.
//   - Injector: seeded fault planner. Every request draws its fault plan
//     from an independent splitmix64-derived stream (par.Seed), so a fixed
//     seed reproduces the exact same fault multiset — and therefore the
//     exact same recovery counters — on every run, at any concurrency.
//   - The serving edge cmd/serve and cmd/router share: NewHTTPServer's
//     connection timeouts, Readiness and its /healthz and /readyz probes,
//     the ServeUntilSignal drain, Quota.Admit's 429 and RetryAfterHint.
//   - Flights: the single-flight both hops coalesce identical requests
//     through, each flight detached from the request that started it.
//
// The package deliberately has no opinion about policy (what to do when a
// request is shed or a deadline expires); internal/serve decides that —
// degraded dictionary-only ranking for /v1/annotate, 429 for /v1/render.
// Retrying a failed request is the router's failover (internal/cluster).
package resilience

import (
	"net/http"
	"sync/atomic"
)

// Doer is the slice of http.Client the cluster router sends its shard
// attempts through (cluster.Config.Client).
type Doer interface {
	Do(*http.Request) (*http.Response, error)
}

// Counters aggregates the resilience events of a server. All fields are
// atomics: they are bumped from concurrent request goroutines.
type Counters struct {
	// PanicsRecovered counts handler panics converted to 500s.
	PanicsRecovered atomic.Int64
	// Shed counts requests refused (or degraded) by admission control.
	Shed atomic.Int64
	// Degraded counts requests answered by the cheap fallback ranking.
	Degraded atomic.Int64
	// DeadlineExpired counts requests whose full pipeline ran out of time.
	DeadlineExpired atomic.Int64
	// QuotaDenied counts requests refused by per-tenant token buckets
	// (429 + Retry-After), before they reach the admission gate.
	QuotaDenied atomic.Int64
	// InjectedLatencies / InjectedPanics / InjectedWriteFailures count the
	// faults the chaos Injector planned (whether or not a handler consumed
	// them).
	InjectedLatencies     atomic.Int64
	InjectedPanics        atomic.Int64
	InjectedWriteFailures atomic.Int64
}

// Snapshot is the JSON-serializable view of Counters, embedded in /statz.
type Snapshot struct {
	PanicsRecovered       int64 `json:"panics_recovered"`
	Shed                  int64 `json:"shed"`
	Degraded              int64 `json:"degraded"`
	DeadlineExpired       int64 `json:"deadline_expired"`
	QuotaDenied           int64 `json:"quota_denied"`
	InjectedLatencies     int64 `json:"injected_latencies"`
	InjectedPanics        int64 `json:"injected_panics"`
	InjectedWriteFailures int64 `json:"injected_write_failures"`
}

// Snapshot reads every counter once. The reads are not a single atomic
// transaction; the snapshot is a monitoring view, not a ledger.
func (c *Counters) Snapshot() Snapshot {
	return Snapshot{
		PanicsRecovered:       c.PanicsRecovered.Load(),
		Shed:                  c.Shed.Load(),
		Degraded:              c.Degraded.Load(),
		DeadlineExpired:       c.DeadlineExpired.Load(),
		QuotaDenied:           c.QuotaDenied.Load(),
		InjectedLatencies:     c.InjectedLatencies.Load(),
		InjectedPanics:        c.InjectedPanics.Load(),
		InjectedWriteFailures: c.InjectedWriteFailures.Load(),
	}
}
