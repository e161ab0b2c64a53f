package resilience

import (
	"bytes"
	"maps"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"
)

// TestQuotaBurstOnly: with rate 0 the bucket is a pure burst budget —
// exactly Burst admissions, then refusals with the fixed 1s hint. This is
// the deterministic configuration the cluster chaos tests pin counters
// against.
func TestQuotaBurstOnly(t *testing.T) {
	q := NewQuota(QuotaConfig{Burst: 3})
	for i := 0; i < 3; i++ {
		if ok, _ := q.Allow("acme"); !ok {
			t.Fatalf("request %d refused within burst", i)
		}
	}
	ok, retryAfter := q.Allow("acme")
	if ok {
		t.Fatal("burst+1 admitted")
	}
	if retryAfter != time.Second {
		t.Fatalf("rate-0 refusal hint %v, want 1s", retryAfter)
	}
	// Other tenants have their own bucket.
	if ok, _ := q.Allow("other"); !ok {
		t.Fatal("second tenant shares the first tenant's bucket")
	}
	if q.Tenants() != 2 {
		t.Fatalf("tenants = %d, want 2", q.Tenants())
	}
}

// TestQuotaRefill: with a rate and an injected clock, tokens come back
// continuously and the refusal hint is the time until one token refills.
func TestQuotaRefill(t *testing.T) {
	now := time.Unix(1000, 0)
	q := NewQuota(QuotaConfig{Burst: 2, RatePerSec: 2, Now: func() time.Time { return now }})
	if ok, _ := q.Allow("t"); !ok {
		t.Fatal("first refused")
	}
	if ok, _ := q.Allow("t"); !ok {
		t.Fatal("second refused")
	}
	ok, retryAfter := q.Allow("t")
	if ok {
		t.Fatal("empty bucket admitted")
	}
	if retryAfter <= 0 || retryAfter > 500*time.Millisecond {
		t.Fatalf("hint %v, want (0, 500ms] at 2 tokens/sec", retryAfter)
	}
	now = now.Add(time.Second) // refills 2 tokens, capped at burst
	if ok, _ := q.Allow("t"); !ok {
		t.Fatal("refused after refill")
	}
	if ok, _ := q.Allow("t"); !ok {
		t.Fatal("second refused after full refill")
	}
	// Refill never exceeds the burst cap.
	now = now.Add(time.Hour)
	for i := 0; i < 2; i++ {
		if ok, _ := q.Allow("t"); !ok {
			t.Fatalf("refill after idle hour: request %d refused", i)
		}
	}
	if ok, _ := q.Allow("t"); ok {
		t.Fatal("idle hour refilled beyond the burst cap")
	}
}

// TestQuotaNilSafe: a nil quota (burst <= 0) admits everything.
func TestQuotaNilSafe(t *testing.T) {
	if NewQuota(QuotaConfig{Burst: 0}) != nil {
		t.Fatal("burst 0 built a quota")
	}
	var q *Quota
	if ok, _ := q.Allow("anyone"); !ok {
		t.Fatal("nil quota refused")
	}
	if q.Tenants() != 0 {
		t.Fatal("nil quota tracks tenants")
	}
}

// TestQuotaBoundedTenants: the tenant name is a client header, so the table
// must not grow with the names an attacker invents. A flood of distinct
// names stops at the cap — with no refill nothing can be dropped, so unseen
// tenants are refused with the usual hint — and a tenant already tracked
// keeps its exact budget through it.
func TestQuotaBoundedTenants(t *testing.T) {
	q := NewQuota(QuotaConfig{Burst: 3})
	for i := 0; i < 2; i++ {
		if ok, _ := q.Allow("acme"); !ok {
			t.Fatalf("acme request %d refused within burst", i)
		}
	}
	refused := 0
	for i := 0; i < 10*maxTenants; i++ {
		ok, retryAfter := q.Allow("flood-" + strconv.Itoa(i))
		if !ok {
			refused++
			if retryAfter != time.Second {
				t.Fatalf("full-table refusal hint %v, want 1s", retryAfter)
			}
		}
	}
	if q.Tenants() > maxTenants {
		t.Fatalf("tenants = %d after the flood, want <= %d", q.Tenants(), maxTenants)
	}
	if want := 9*maxTenants + 1; refused != want {
		t.Fatalf("refused %d unseen tenants, want %d (all past the cap)", refused, want)
	}
	if ok, _ := q.Allow("acme"); !ok {
		t.Fatal("acme lost its third token to the flood")
	}
	if ok, _ := q.Allow("acme"); ok {
		t.Fatal("acme admitted past its burst after the flood")
	}
}

// TestQuotaDropsRefilledTenants: with a refill rate, a bucket back at Burst
// is the same as no bucket, so at the cap those are dropped to make room —
// and only those: a tenant still in debt keeps its bucket and its refusal.
func TestQuotaDropsRefilledTenants(t *testing.T) {
	now := time.Unix(1000, 0)
	q := NewQuota(QuotaConfig{Burst: 2, RatePerSec: 1, Now: func() time.Time { return now }})
	for i := 0; i < maxTenants-1; i++ {
		q.Allow("idle-" + strconv.Itoa(i)) // 1 of 2 tokens left
	}
	now = now.Add(10 * time.Second) // every idle bucket is full again
	q.Allow("busy")
	q.Allow("busy")
	if ok, _ := q.Allow("busy"); ok {
		t.Fatal("busy admitted past its burst")
	}
	if q.Tenants() != maxTenants {
		t.Fatalf("tenants = %d, want the table at its cap %d", q.Tenants(), maxTenants)
	}
	if ok, _ := q.Allow("newcomer"); !ok {
		t.Fatal("newcomer refused although refilled buckets could be dropped")
	}
	if q.Tenants() != 2 {
		t.Fatalf("tenants = %d after the sweep, want 2 (busy + newcomer)", q.Tenants())
	}
	if ok, _ := q.Allow("busy"); ok {
		t.Fatal("the sweep forgave busy's debt")
	}
}

// TestQuotaKeyTruncated: names are keyed on their first maxTenantKey bytes,
// so an attacker cannot make the table's keys arbitrarily long either.
func TestQuotaKeyTruncated(t *testing.T) {
	q := NewQuota(QuotaConfig{Burst: 1})
	prefix := strings.Repeat("x", maxTenantKey)
	if ok, _ := q.Allow(prefix + "-a"); !ok {
		t.Fatal("first refused")
	}
	if ok, _ := q.Allow(prefix + "-b"); ok {
		t.Fatal("names sharing their first 128 bytes got separate buckets")
	}
	if q.Tenants() != 1 {
		t.Fatalf("tenants = %d, want 1", q.Tenants())
	}
}

// TestQuotaKeyOwnsItsBytes: a tracked tenant's key is a copy of its first
// maxTenantKey bytes, not a slice of the header value, so a bucket pins 128
// bytes rather than the whole name (up to net/http's 1 MiB header limit).
// Both hops hold this type: serve.Server.Quota and cluster.Config.Quota.
func TestQuotaKeyOwnsItsBytes(t *testing.T) {
	q := NewQuota(QuotaConfig{Burst: 1})
	name := strings.Repeat("t", 64<<10)
	q.Allow(name)
	q.mu.Lock()
	defer q.mu.Unlock()
	for key := range q.buckets {
		if len(key) != maxTenantKey {
			t.Fatalf("key is %d bytes, want %d", len(key), maxTenantKey)
		}
		start := uintptr(unsafe.Pointer(unsafe.StringData(name)))
		if at := uintptr(unsafe.Pointer(unsafe.StringData(key))); at >= start && at < start+uintptr(len(name)) {
			t.Fatal("the bucket key shares the tenant argument's memory")
		}
	}
}

// FuzzTenantHeader drives Admit with the X-Tenant values a client can send,
// one per line of the input, against a table pre-filled to two short of its
// cap: every request is refused exactly when its key (the name's first
// maxTenantKey bytes) has spent its burst of 2, or is new and the table is
// full; every refusal is one 429 with an integer Retry-After of at least 1
// and one count; the table never outgrows maxTenants.
func FuzzTenantHeader(f *testing.F) {
	f.Add([]byte("acme\nacme\nacme"))
	f.Add([]byte("a\nb\nc\nd\na\na\na"))
	f.Add([]byte("\nprefill-7\nprefill-7\n"))
	f.Add([]byte(strings.Repeat("x", 200) + "\n" + strings.Repeat("x", 128) + "y\n" + strings.Repeat("x", 127)))
	prefill := make(map[string]int, maxTenants-2)
	for i := 0; i < maxTenants-2; i++ {
		prefill["prefill-"+strconv.Itoa(i)] = 1
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		now := time.Unix(1000, 0)
		q := NewQuota(QuotaConfig{Burst: 2, Now: func() time.Time { return now }})
		for name := range prefill {
			q.Allow(name)
		}
		admitted := maps.Clone(prefill) // the oracle: tokens spent per key
		var denied atomic.Int64
		for _, line := range bytes.Split(data, []byte("\n")) {
			tenant := string(line)
			key := tenant
			if len(key) > maxTenantKey {
				key = key[:maxTenantKey]
			}
			spent, tracked := admitted[key]
			wantRefused := spent >= 2 || (!tracked && len(admitted) >= maxTenants)

			rec := httptest.NewRecorder()
			before := denied.Load()
			ok := q.Admit(rec, tenant, &denied)
			if ok == wantRefused {
				t.Fatalf("tenant %q (spent %d, tracked %v, table %d): admitted = %v", tenant, spent, tracked, len(admitted), ok)
			}
			if ok {
				admitted[key]++
				if rec.Body.Len() != 0 || len(rec.Header()) != 0 || denied.Load() != before {
					t.Fatalf("tenant %q admitted but the response was touched", tenant)
				}
			} else {
				if rec.Code != http.StatusTooManyRequests {
					t.Fatalf("refusal status %d, want 429", rec.Code)
				}
				if secs, err := strconv.Atoi(rec.Header().Get("Retry-After")); err != nil || secs < 1 {
					t.Fatalf("refusal Retry-After %q, want an integer >= 1", rec.Header().Get("Retry-After"))
				}
				if got := denied.Load() - before; got != 1 {
					t.Fatalf("refusal counted %d times, want 1", got)
				}
			}
			if n := q.Tenants(); n > maxTenants || n != len(admitted) {
				t.Fatalf("tenants = %d, want %d (cap %d)", n, len(admitted), maxTenants)
			}
		}
	})
}
