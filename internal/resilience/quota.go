package resilience

import (
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"contextrank/internal/wire"
)

// QuotaConfig parameterizes per-tenant token buckets.
type QuotaConfig struct {
	// Burst is the bucket capacity in requests (tokens). Values <= 0
	// disable quotas (NewQuota returns nil).
	Burst int
	// RatePerSec refills the bucket continuously. Zero means no refill —
	// a pure burst budget, which is also the deterministic configuration
	// the quota tests pin exact counters against.
	RatePerSec float64
	// Now is the clock (nil = time.Now). Injectable so tests control
	// refill deterministically.
	Now func() time.Time
}

// The tenant name is a client header, so the table it keys is bounded in
// both directions: a name counts up to its first maxTenantKey bytes, and at
// most maxTenants buckets are tracked.
const (
	maxTenantKey = 128
	maxTenants   = 4096
)

// Quota is a per-tenant token-bucket admission check, sitting in front of
// the concurrency gate: the gate bounds how much work runs at once, the
// quota bounds how much work each tenant may submit over time. A nil
// *Quota is a valid "quotas disabled" value.
type Quota struct {
	cfg QuotaConfig

	mu sync.Mutex
	//kw:guardedby(mu)
	buckets map[string]*bucket
	// swept is when the full table was last scanned for droppable buckets.
	//kw:guardedby(mu)
	swept time.Time
}

type bucket struct {
	tokens float64
	last   time.Time
}

// NewQuota builds a quota, or returns nil when cfg.Burst <= 0.
func NewQuota(cfg QuotaConfig) *Quota {
	if cfg.Burst <= 0 {
		return nil
	}
	return &Quota{cfg: cfg, buckets: make(map[string]*bucket)}
}

func (q *Quota) now() time.Time {
	if q.cfg.Now != nil {
		return q.cfg.Now()
	}
	return time.Now()
}

// refilled is the bucket's balance at now: what it held plus the refill
// since it was last touched, capped at Burst.
func (q *Quota) refilled(b *bucket, now time.Time) float64 {
	tokens := b.tokens
	if elapsed := now.Sub(b.last).Seconds(); q.cfg.RatePerSec > 0 && elapsed > 0 {
		tokens += float64(elapsed * q.cfg.RatePerSec)
	}
	if max := float64(q.cfg.Burst); tokens > max {
		tokens = max
	}
	return tokens
}

// Allow spends one token from tenant's bucket. On refusal it returns the
// Retry-After hint: the time until one token refills, or one second when
// the bucket never refills (rate 0) or the table is full of tenants with
// spent budget and this one is new.
func (q *Quota) Allow(tenant string) (ok bool, retryAfter time.Duration) {
	if q == nil {
		return true, 0
	}
	if len(tenant) > maxTenantKey {
		tenant = tenant[:maxTenantKey]
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	now := q.now()
	b, found := q.buckets[tenant]
	if !found {
		if len(q.buckets) >= maxTenants {
			// A bucket refilled to Burst is indistinguishable from an
			// absent one (none is, without a refill rate): drop those, at
			// most once per refusal hint so a flood of names costs a probe
			// each. If every tenant still has budget out, refuse, not grow.
			if q.cfg.RatePerSec > 0 && now.Sub(q.swept) >= time.Second {
				q.swept = now
				for name, old := range q.buckets {
					if q.refilled(old, now) >= float64(q.cfg.Burst) {
						delete(q.buckets, name)
					}
				}
			}
			if len(q.buckets) >= maxTenants {
				return false, time.Second
			}
		}
		// The key is stored as a copy: tenant slices the request's header
		// value, which the bucket would otherwise keep alive whole.
		b = &bucket{tokens: float64(q.cfg.Burst), last: now}
		q.buckets[strings.Clone(tenant)] = b
	}
	b.tokens, b.last = q.refilled(b, now), now
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	if q.cfg.RatePerSec <= 0 {
		return false, time.Second
	}
	deficit := 1 - b.tokens
	return false, time.Duration(deficit / q.cfg.RatePerSec * float64(time.Second))
}

// Admit is the quota check of a metered endpoint, made before any other
// work on the request: it spends one of tenant's tokens, or writes the 429
// with the Retry-After hint Allow gives, counts it in denied and returns
// false. A refusal is policy, not pressure, so it is never answered with a
// degraded result. The metered endpoints are the document endpoints:
// /v1/annotate and /v1/render on cmd/serve, /v1/annotate on cmd/router;
// the probes, /statz, /v1/concepts and /admin/probe are not metered. A nil
// *Quota admits every request.
func (q *Quota) Admit(w http.ResponseWriter, tenant string, denied *atomic.Int64) bool {
	ok, retryAfter := q.Allow(tenant)
	if ok {
		return true
	}
	denied.Add(1)
	w.Header().Set("Retry-After", wire.RetryAfter(retryAfter))
	http.Error(w, "tenant quota exceeded", http.StatusTooManyRequests)
	return false
}

// Tenants is the number of buckets currently tracked (a /statz gauge).
func (q *Quota) Tenants() int {
	if q == nil {
		return 0
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.buckets)
}
