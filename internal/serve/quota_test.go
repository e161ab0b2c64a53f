package serve

import (
	"bytes"
	"encoding/json"
	"math/big"
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

// FuzzForwardedDeadline: in shard mode, requestCtx takes any X-Deadline-Ms
// string beside a Timeout of 0, 1 ms or 2 s without panicking; it never sets
// a deadline later than a positive Timeout; a positive header value whose
// milliseconds fit a time.Duration sets the earlier of the two; and a
// non-numeric, non-positive or overflowing value leaves the Timeout policy
// as it is — its deadline, or none.
func FuzzForwardedDeadline(f *testing.F) {
	for _, v := range []string{"", "50", "1", "2000", "0", "-5", "abc", "+7", " 5", "1e3", "9223372036854", "9223372036855", "9223372036854775807", "99999999999999999999"} {
		f.Add(v, uint8(0))
		f.Add(v, uint8(1))
		f.Add(v, uint8(2))
	}
	timeouts := [...]time.Duration{0, time.Millisecond, 2 * time.Second}
	f.Fuzz(func(t *testing.T, header string, pick uint8) {
		srv := &Server{Timeout: timeouts[int(pick)%len(timeouts)], TrustForwardedDeadline: true}
		r := httptest.NewRequest(http.MethodPost, "/v1/annotate", nil)
		r.Header.Set(DeadlineHeader, header)
		before := time.Now()
		ctx, cancel := srv.requestCtx(r)
		after := time.Now()
		defer cancel()
		dl, ok := ctx.Deadline()

		if srv.Timeout > 0 && (!ok || dl.After(after.Add(srv.Timeout))) {
			t.Fatalf("header %q, Timeout %v: deadline %v (set %v) is later than the Timeout", header, srv.Timeout, dl.Sub(before), ok)
		}
		// The header's budget, worked out apart from requestCtx's parse: an
		// exact decimal integer whose milliseconds, in nanoseconds, fit a
		// time.Duration. Usable, the deadline is the earlier of it and a
		// positive Timeout.
		if v, isInt := new(big.Int).SetString(r.Header.Get(DeadlineHeader), 10); isInt && v.Sign() > 0 {
			if ns := v.Mul(v, big.NewInt(int64(time.Millisecond))); ns.IsInt64() {
				want := time.Duration(ns.Int64())
				if srv.Timeout > 0 && srv.Timeout < want {
					want = srv.Timeout
				}
				if !ok || dl.Before(before.Add(want)) || dl.After(after.Add(want)) {
					t.Fatalf("header %q, Timeout %v: deadline %v (set %v), want %v", header, srv.Timeout, dl.Sub(before), ok, want)
				}
				return
			}
		}
		// Not a usable budget: the Timeout alone decides.
		if srv.Timeout == 0 && ok {
			t.Fatalf("header %q with no Timeout set a deadline %v", header, dl.Sub(before))
		}
		if srv.Timeout > 0 && dl.Before(before.Add(srv.Timeout)) {
			t.Fatalf("header %q shortened the %v Timeout to %v", header, srv.Timeout, dl.Sub(before))
		}
	})
}
