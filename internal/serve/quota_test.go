package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"contextrank/internal/resilience"
)

func postJSONTenant(t *testing.T, h http.Handler, path string, body any, tenant string) *httptest.ResponseRecorder {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(data))
	if tenant != "" {
		req.Header.Set(TenantHeader, tenant)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// TestQuotaDeniesOverBudgetTenant: a burst-exhausted tenant gets 429 +
// Retry-After on both document endpoints — a quota refusal is policy, not
// pressure, so it is never the degraded ranking — while other tenants
// proceed, and /statz accounts the denials.
func TestQuotaDeniesOverBudgetTenant(t *testing.T) {
	srv := testServer(t)
	srv.Quota = resilience.NewQuota(resilience.QuotaConfig{Burst: 2})
	h := srv.Handler()
	req := AnnotateRequest{Text: "the alphaword story", Top: 1}

	for i := 0; i < 2; i++ {
		if rec := postJSONTenant(t, h, "/v1/annotate", req, "acme"); rec.Code != http.StatusOK {
			t.Fatalf("request %d: status %d", i, rec.Code)
		}
	}
	rec := postJSONTenant(t, h, "/v1/annotate", req, "acme")
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("over-budget annotate: status %d, want 429", rec.Code)
	}
	if ra, err := strconv.Atoi(rec.Header().Get("Retry-After")); err != nil || ra < 1 {
		t.Fatalf("429 Retry-After %q", rec.Header().Get("Retry-After"))
	}
	if rec := postJSONTenant(t, h, "/v1/render", req, "acme"); rec.Code != http.StatusTooManyRequests {
		t.Fatalf("over-budget render: status %d, want 429", rec.Code)
	}
	// The anonymous tenant has its own bucket.
	if rec := postJSONTenant(t, h, "/v1/annotate", req, ""); rec.Code != http.StatusOK {
		t.Fatalf("anonymous tenant: status %d", rec.Code)
	}

	statRec := httptest.NewRecorder()
	h.ServeHTTP(statRec, httptest.NewRequest(http.MethodGet, "/statz", nil))
	var st Stats
	if err := json.Unmarshal(statRec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Resilience.QuotaDenied != 2 {
		t.Fatalf("quota_denied = %d, want 2", st.Resilience.QuotaDenied)
	}
	if st.QuotaTenants != 2 {
		t.Fatalf("quota_tenants = %d, want 2 (acme + anonymous)", st.QuotaTenants)
	}
}

// TestForwardedDeadlineClamp: in shard mode (TrustForwardedDeadline) the
// router's X-Deadline-Ms clamps the request context; an internet-facing
// server (the default) must ignore the header entirely.
func TestForwardedDeadlineClamp(t *testing.T) {
	srv := testServer(t)
	srv.Timeout = time.Minute
	newReq := func(ms string) *http.Request {
		r := httptest.NewRequest(http.MethodPost, "/v1/annotate", nil)
		if ms != "" {
			r.Header.Set(DeadlineHeader, ms)
		}
		return r
	}

	// Default: the forwarded header is ignored.
	ctx, cancel := srv.requestCtx(newReq("50"))
	dl, ok := ctx.Deadline()
	cancel()
	if !ok || time.Until(dl) < 30*time.Second {
		t.Fatalf("untrusted forwarded deadline shrank the budget to %v", time.Until(dl))
	}

	srv.TrustForwardedDeadline = true
	ctx, cancel = srv.requestCtx(newReq("50"))
	dl, ok = ctx.Deadline()
	cancel()
	if !ok {
		t.Fatal("shard mode dropped the deadline")
	}
	if remain := time.Until(dl); remain > 60*time.Millisecond || remain <= 0 {
		t.Fatalf("shard-mode budget %v, want clamped to ~50ms", remain)
	}

	// The forwarded value can only shrink the budget, never extend it.
	srv.Timeout = 20 * time.Millisecond
	ctx, cancel = srv.requestCtx(newReq("5000"))
	dl, _ = ctx.Deadline()
	cancel()
	if remain := time.Until(dl); remain > 30*time.Millisecond {
		t.Fatalf("forwarded header extended the budget to %v", remain)
	}

	// Garbage and non-positive values fall back to the configured timeout.
	for _, bad := range []string{"", "abc", "-5", "0"} {
		ctx, cancel = srv.requestCtx(newReq(bad))
		dl, ok = ctx.Deadline()
		cancel()
		if !ok || time.Until(dl) > 25*time.Millisecond {
			t.Fatalf("header %q: budget %v, want the configured 20ms", bad, time.Until(dl))
		}
	}

	// A value whose conversion to a time.Duration would wrap negative does
	// not shorten the budget, so the configured timeout stays in force (it
	// used to win the comparison and remove the deadline altogether).
	for _, huge := range []string{"9223372036855", "9223372036854775807"} {
		ctx, cancel = srv.requestCtx(newReq(huge))
		dl, ok = ctx.Deadline()
		cancel()
		if !ok || time.Until(dl) > 25*time.Millisecond {
			t.Fatalf("header %q: deadline %v (set %v), want the configured 20ms", huge, time.Until(dl), ok)
		}
	}

	// With no configured timeout, shard mode still honors the router's
	// budget (the only deadline the request has).
	srv.Timeout = 0
	ctx, cancel = srv.requestCtx(newReq("40"))
	dl, ok = ctx.Deadline()
	cancel()
	if !ok || time.Until(dl) > 50*time.Millisecond {
		t.Fatal("shard mode without local timeout ignored the forwarded budget")
	}
	ctx, cancel = srv.requestCtx(newReq(""))
	if _, ok = ctx.Deadline(); ok {
		t.Fatal("no timeout and no header still produced a deadline")
	}
	cancel()
}
