package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestHitPathDoesNotRetainRequestBuffer: the hit path works on a view into
// a pooled body buffer, and the next request overwrites that buffer. If the
// view ever reached a cacheEntry or a flight, warming A and then pushing a
// same-length B through the recycled buffer would rewrite A's stored text
// to B's: A would stop hitting, or B's lookups would be served A's bytes.
func TestHitPathDoesNotRetainRequestBuffer(t *testing.T) {
	srv := testServer(t)
	srv.Cache = NewCache(64)
	h := srv.Handler()
	a := AnnotateRequest{Text: "the alphaword met the betaword near ctx", Top: 2}
	b := AnnotateRequest{Text: "the betaword met the alphaword near ctx", Top: 2}

	coldA := postJSON(t, h, "/v1/annotate", a).Body.Bytes()
	coldB := postJSON(t, h, "/v1/annotate", b).Body.Bytes()
	if bytes.Equal(coldA, coldB) {
		t.Fatal("the two documents must annotate differently for this test to see a mix-up")
	}
	for round := 0; round < 8; round++ {
		if got := postJSON(t, h, "/v1/annotate", b).Body.Bytes(); !bytes.Equal(got, coldB) {
			t.Fatalf("round %d: B served %s, want %s", round, got, coldB)
		}
		if got := postJSON(t, h, "/v1/annotate", a).Body.Bytes(); !bytes.Equal(got, coldA) {
			t.Fatalf("round %d: A served %s, want %s", round, got, coldA)
		}
	}
	if st := srv.Cache.Stats(); st.Misses != 2 || st.Hits != 16 || st.Entries != 2 {
		t.Fatalf("counters %+v, want 2 misses, 16 hits, 2 entries", st)
	}
}

// TestCacheLookupRejectsCollidingEntry: an entry stored under a key for one
// text is a miss for another text that hashes to the same key.
func TestCacheLookupRejectsCollidingEntry(t *testing.T) {
	c := NewCache(64)
	k := cacheKey{hash: 7, top: 3}
	c.put(k, "doc A", []byte("annotations of A"))
	if body, ok := lookup(c, k, "doc B"); ok {
		t.Fatalf("colliding lookup was served %q", body)
	}
	if body, ok := lookup(c, k, []byte("doc A")); !ok || string(body) != "annotations of A" {
		t.Fatalf("lookup of the stored text = %q, %v", body, ok)
	}
	if st := c.Stats(); st.Hits != 1 {
		t.Fatalf("a collision counted as a hit: %+v", st)
	}
}

// TestCacheFlightRejectsCollidingMiss: a miss whose key collides with an
// in-progress flight for another text must not be handed that flight's
// bytes; it computes on its own and leaves the flight registered.
func TestCacheFlightRejectsCollidingMiss(t *testing.T) {
	c := NewCache(64)
	k := cacheKey{hash: 7, top: 3}
	started := make(chan struct{})
	proceed := make(chan struct{})
	leader := make(chan []byte, 1)
	go func() {
		body, _ := c.fill(context.Background(), k, "doc A", k.top, nil, fillFunc(func(context.Context) ([]byte, bool) {
			close(started)
			<-proceed
			return []byte("annotations of A"), true
		}))
		leader <- body
	}()
	<-started

	body, err := c.fill(context.Background(), k, "doc B", k.top, nil, fillFunc(func(context.Context) ([]byte, bool) {
		return []byte("annotations of B"), true
	}))
	if err != nil || string(body) != "annotations of B" {
		t.Fatalf("colliding miss got %q, %v", body, err)
	}

	// A's flight is still the registered one: a second request for A joins it.
	follower := make(chan []byte, 1)
	go func() {
		body, _ := c.fill(context.Background(), k, "doc A", k.top, nil, fillFunc(func(context.Context) ([]byte, bool) {
			t.Error("follower of A recomputed")
			return nil, false
		}))
		follower <- body
	}()
	for deadline := time.Now().Add(10 * time.Second); c.Stats().Coalesced == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("A's follower never joined A's flight")
		}
	}
	close(proceed)
	if a, f := <-leader, <-follower; string(a) != "annotations of A" || string(f) != "annotations of A" {
		t.Fatalf("A's leader got %q, its follower %q", a, f)
	}
}

// nullWriter is a ResponseWriter that keeps nothing, so the benchmark below
// counts the handler's own allocations and not a recorder's.
type nullWriter struct{ h http.Header }

func (w *nullWriter) Header() http.Header         { return w.h }
func (w *nullWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *nullWriter) WriteHeader(int)             {}

type reusableBody struct{ bytes.Reader }

func (*reusableBody) Close() error { return nil }

// BenchmarkHandleAnnotateHit is one cache hit through the handler with no
// socket: a reused request, a 4 KB body with escapes, a warm cache. `make
// bench` guards its B/op and allocs/op.
func BenchmarkHandleAnnotateHit(b *testing.B) {
	srv := testServer(b)
	srv.Cache = NewCache(64)
	payload, err := json.Marshal(AnnotateRequest{
		Text: strings.Repeat("Reuters said the alphaword met the \"betaword\" near ctx as profits rose 4% & costs fell; contact a@b.com.\n", 38),
		Top:  3,
	})
	if err != nil {
		b.Fatal(err)
	}
	body := &reusableBody{}
	req := httptest.NewRequest(http.MethodPost, "/v1/annotate", nil)
	req.ContentLength = int64(len(payload))
	req.Body = body
	w := &nullWriter{h: http.Header{}}
	serve := func() {
		body.Reset(payload)
		srv.handleAnnotate(w, req)
	}
	serve() // the miss that warms the cache
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serve()
	}
	b.StopTimer()
	if st := srv.Cache.Stats(); st.Misses != 1 || st.Hits != int64(b.N) {
		b.Fatalf("not a hit benchmark: %+v", st)
	}
}
