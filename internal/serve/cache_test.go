package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"contextrank/internal/framework"
	"contextrank/internal/resilience"
	"contextrank/internal/wire"
)

// TestCacheHitBytesIdenticalToCold is the cache differential: the same
// request served cold, served from cache, and served by a cache-less server
// must produce byte-identical bodies.
func TestCacheHitBytesIdenticalToCold(t *testing.T) {
	srv := testServer(t)
	srv.Cache = NewCache(64)
	h := srv.Handler()
	plain := testServer(t).Handler() // no cache

	req := AnnotateRequest{Text: "the alphaword met the betaword near ctx; email a@b.com", Top: 2}
	cold := postJSON(t, h, "/v1/annotate", req)
	hit := postJSON(t, h, "/v1/annotate", req)
	uncached := postJSON(t, plain, "/v1/annotate", req)
	if cold.Code != http.StatusOK || hit.Code != http.StatusOK {
		t.Fatalf("status cold=%d hit=%d", cold.Code, hit.Code)
	}
	if !bytes.Equal(cold.Body.Bytes(), hit.Body.Bytes()) {
		t.Fatalf("cache hit bytes differ from cold bytes:\ncold %s\nhit  %s", cold.Body, hit.Body)
	}
	if !bytes.Equal(cold.Body.Bytes(), uncached.Body.Bytes()) {
		t.Fatalf("cached server bytes differ from cache-less server:\ncached   %s\nuncached %s", cold.Body, uncached.Body)
	}
	st := srv.Cache.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("counters after cold+hit: %+v", st)
	}

	// Different topN is a different key.
	postJSON(t, h, "/v1/annotate", AnnotateRequest{Text: req.Text, Top: 1})
	if st := srv.Cache.Stats(); st.Misses != 2 {
		t.Fatalf("topN must be part of the key: %+v", st)
	}
}

// TestCacheNeverStoresDegraded: responses produced under shedding (a gate
// with zero capacity sheds everything) must not be cached — a later
// uncontended request has to run the full pipeline.
func TestCacheNeverStoresDegraded(t *testing.T) {
	srv := testServer(t)
	srv.Cache = NewCache(64)
	srv.Gate = resilience.NewGate(1, 0, 0)
	h := srv.Handler()

	// Hold the only slot so the request below is shed.
	release, err := srv.Gate.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	req := AnnotateRequest{Text: "the alphaword story", Top: 1}
	rec := postJSON(t, h, "/v1/annotate", req)
	var resp AnnotateResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Degraded {
		t.Fatal("request with a full gate should degrade")
	}
	release()

	rec = postJSON(t, h, "/v1/annotate", req)
	var resp2 AnnotateResponse // fresh: degraded is omitempty
	if err := json.Unmarshal(rec.Body.Bytes(), &resp2); err != nil {
		t.Fatal(err)
	}
	if resp2.Degraded {
		t.Fatal("degraded response was served from cache")
	}
	if st := srv.Cache.Stats(); st.Hits != 0 || st.Entries != 1 {
		t.Fatalf("expected 0 hits and only the full response stored: %+v", st)
	}
}

// TestCacheHitBypassesGate: a zero-capacity gate sheds every cold request,
// but a warmed key must still serve the full (cached) response.
func TestCacheHitBypassesGate(t *testing.T) {
	srv := testServer(t)
	srv.Cache = NewCache(64)
	h := srv.Handler()

	req := AnnotateRequest{Text: "the alphaword story", Top: 1}
	postJSON(t, h, "/v1/annotate", req) // warm while unbounded

	srv.Gate = resilience.NewGate(1, 0, 0)
	release, err := srv.Gate.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer release()

	rec := postJSON(t, h, "/v1/annotate", req)
	var resp AnnotateResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Degraded {
		t.Fatal("cache hit went through the (full) admission gate")
	}
	if st := srv.Cache.Stats(); st.Hits != 1 {
		t.Fatalf("expected a cache hit: %+v", st)
	}
}

// TestCacheEviction fills the cache past capacity and checks the eviction
// counter and occupancy bound.
func TestCacheEviction(t *testing.T) {
	c := NewCache(numCacheShards) // one entry per shard
	for i := 0; i < 10*numCacheShards; i++ {
		text := fmt.Sprintf("doc %d", i)
		if _, err := c.Do(context.Background(), text, 3, 0, func(context.Context) ([]byte, bool) {
			return []byte(text), true
		}); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if st.Entries > st.Capacity {
		t.Fatalf("occupancy %d exceeds capacity %d", st.Entries, st.Capacity)
	}
	if st.Evictions == 0 {
		t.Fatal("overfilling the cache evicted nothing")
	}
}

// TestCacheCoalescesConcurrentMisses: concurrent misses on one key run the
// pipeline once; followers receive the leader's bytes.
func TestCacheCoalescesConcurrentMisses(t *testing.T) {
	c := NewCache(64)
	computed := 0
	var mu sync.Mutex
	started := make(chan struct{})
	proceed := make(chan struct{})

	const followers = 4
	results := make([][]byte, followers+1)
	var wg sync.WaitGroup
	wg.Add(followers + 1)
	go func() {
		defer wg.Done()
		body, _ := c.Do(context.Background(), "doc", 3, 0, func(context.Context) ([]byte, bool) {
			mu.Lock()
			computed++
			mu.Unlock()
			close(started)
			<-proceed
			return []byte("payload"), true
		})
		results[0] = body
	}()
	<-started
	for i := 1; i <= followers; i++ {
		go func(i int) {
			defer wg.Done()
			body, err := c.Do(context.Background(), "doc", 3, 0, func(context.Context) ([]byte, bool) {
				mu.Lock()
				computed++
				mu.Unlock()
				return []byte("payload"), true
			})
			if err != nil {
				t.Error(err)
			}
			results[i] = body
		}(i)
	}
	// Give followers a moment to park on the flight, then release the leader.
	time.Sleep(20 * time.Millisecond)
	close(proceed)
	wg.Wait()

	for i, r := range results {
		if string(r) != "payload" {
			t.Fatalf("caller %d got %q", i, r)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	// The leader computes once; a follower may legitimately recompute only
	// if it raced ahead of the flight registration, which the started/park
	// choreography prevents for the leader's window.
	if computed != 1 {
		t.Fatalf("pipeline ran %d times for one key", computed)
	}
	if st := c.Stats(); st.Coalesced != followers {
		t.Fatalf("coalesced = %d, want %d", st.Coalesced, followers)
	}
}

// TestCacheStoresBeforeRetiringFlight is the regression for the fill's
// store/retire order. The fill used to retire the flight and close its done
// channel before storing the entry, so a request arriving in between found
// neither and ran the pipeline again. Each round parks a crowd of followers
// on one flight and has every caller ask again the moment it is answered:
// close wakes the followers one by one, so the early ones re-ask while the
// fill goroutine is still inside close — squarely in the old window, where
// (given a second core to run them) they recomputed. With the entry stored
// first every second request is a hit and the counters are exact.
func TestCacheStoresBeforeRetiringFlight(t *testing.T) {
	c := NewCache(64)
	const rounds, followers = 8, 512
	for r := 0; r < rounds; r++ {
		doc := fmt.Sprintf("doc %d", r)
		var computed atomic.Int64
		started := make(chan struct{})
		proceed := make(chan struct{})
		fill := func(context.Context) ([]byte, bool) {
			if computed.Add(1) == 1 {
				close(started)
				<-proceed
			}
			return []byte(doc), true
		}
		var wg sync.WaitGroup
		askTwice := func() {
			defer wg.Done()
			for i := 0; i < 2; i++ {
				if body, err := c.Do(context.Background(), doc, 3, 0, fill); err != nil || string(body) != doc {
					t.Errorf("Do(%q) = %q, %v", doc, body, err)
				}
			}
		}
		wg.Add(followers + 1)
		go askTwice() // the leader
		<-started
		for i := 0; i < followers; i++ {
			go askTwice()
		}
		joined := int64((r + 1) * followers)
		for deadline := time.Now().Add(10 * time.Second); c.Stats().Coalesced < joined; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("round %d: followers never joined the flight: %+v", r, c.Stats())
			}
		}
		close(proceed)
		wg.Wait()
		if n := computed.Load(); n != 1 {
			t.Fatalf("round %d: pipeline ran %d times for one key", r, n)
		}
	}
	const asks = rounds * (followers + 1)
	if st := c.Stats(); st.Misses != asks || st.Coalesced != rounds*followers || st.Hits != asks {
		t.Fatalf("counters %+v, want misses=%d coalesced=%d hits=%d", st, asks, rounds*followers, asks)
	}
}

// TestCacheCancelledLeaderDoesNotPoisonWaiters is the satellite-2
// regression: the leader's request is cancelled mid-fill, but the fill is
// detached onto its own bounded context, so a coalesced follower with a
// live context must still receive the real payload (not the leader's
// context error), and the entry must land in the cache.
func TestCacheCancelledLeaderDoesNotPoisonWaiters(t *testing.T) {
	c := NewCache(64)
	started := make(chan struct{})
	proceed := make(chan struct{})

	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	leaderErr := make(chan error, 1)
	go func() {
		_, err := c.Do(leaderCtx, "doc", 3, 0, func(fctx context.Context) ([]byte, bool) {
			close(started)
			select {
			case <-proceed:
			case <-fctx.Done():
				return nil, false // fill bound expired: uncacheable
			}
			return []byte("payload"), true
		})
		leaderErr <- err
	}()
	<-started

	// A follower parks on the leader's flight.
	followerBody := make(chan []byte, 1)
	go func() {
		body, err := c.Do(context.Background(), "doc", 3, 0, func(context.Context) ([]byte, bool) {
			t.Error("follower recomputed a coalesced fill")
			return nil, false
		})
		if err != nil {
			t.Errorf("follower: %v", err)
		}
		followerBody <- body
	}()
	for c.Stats().Coalesced == 0 {
		time.Sleep(time.Millisecond)
	}

	// Cancel the leader while the fill is in flight: the leader errors out,
	// the fill keeps running.
	cancelLeader()
	if err := <-leaderErr; err != context.Canceled {
		t.Fatalf("cancelled leader returned %v, want context.Canceled", err)
	}
	close(proceed)
	if body := <-followerBody; string(body) != "payload" {
		t.Fatalf("follower got %q after leader cancellation", body)
	}
	if _, ok := lookup(c, cacheKey{hash: wire.Key("doc", 3), top: 3}, "doc"); !ok {
		t.Fatal("detached fill did not populate the cache")
	}
}

// TestCacheEpochRotatesKeys: moving the index visibility epoch must turn a
// warmed key into a miss (annotations may now differ), while requests under
// the unchanged epoch keep hitting — and a pure epoch echo (same value
// again) stays a hit.
func TestCacheEpochRotatesKeys(t *testing.T) {
	c := NewCache(64)
	fill := func(tag string) func(context.Context) ([]byte, bool) {
		return func(context.Context) ([]byte, bool) { return []byte(tag), true }
	}
	if body, _ := c.Do(context.Background(), "doc", 3, 1, fill("epoch1")); string(body) != "epoch1" {
		t.Fatalf("cold fill got %q", body)
	}
	if body, _ := c.Do(context.Background(), "doc", 3, 1, fill("recompute")); string(body) != "epoch1" {
		t.Fatalf("same-epoch request missed: %q", body)
	}
	if body, _ := c.Do(context.Background(), "doc", 3, 2, fill("epoch2")); string(body) != "epoch2" {
		t.Fatalf("epoch move served stale bytes: %q", body)
	}
	if st := c.Stats(); st.Hits != 1 || st.Misses != 2 {
		t.Fatalf("counters after epoch rotation: %+v", st)
	}
}

// TestCacheFillTimeoutBoundsDetachedFill: a fill that outlives FillTimeout
// sees its fill context expire even when the caller's context is still
// live — the bound that keeps an abandoned fill from pinning a gate slot
// forever.
func TestCacheFillTimeoutBoundsDetachedFill(t *testing.T) {
	c := NewCache(64)
	c.FillTimeout = 10 * time.Millisecond
	body, err := c.Do(context.Background(), "doc", 3, 0, func(fctx context.Context) ([]byte, bool) {
		select {
		case <-fctx.Done():
			return nil, false
		case <-time.After(5 * time.Second):
			t.Error("fill context never expired")
			return nil, false
		}
	})
	if err != nil {
		t.Fatalf("caller with live context got error %v", err)
	}
	if body != nil {
		t.Fatalf("timed-out fill produced body %q", body)
	}
	if st := c.Stats(); st.Entries != 0 {
		t.Fatalf("uncacheable timed-out fill was stored: %+v", st)
	}
}

// TestCacheFillPanicIs500ForEveryWaiter: the detector runs on the cache's
// detached fill goroutine, out of Recover's reach. A panic there must be
// recovered and counted once, answer the leader and each coalesced
// follower with Recover's 500, store nothing and retire the flight, so the
// next miss runs (and panics) afresh.
func TestCacheFillPanicIs500ForEveryWaiter(t *testing.T) {
	srv := testServer(t)
	srv.Cache = NewCache(64)
	srv.Runtime = &framework.Runtime{} // built by no constructor: no tables, so annotating panics
	srv.Gate = resilience.NewGate(1, 4, time.Minute)
	h := srv.Handler()
	payload, err := json.Marshal(AnnotateRequest{Text: "the alphaword story", Top: 1})
	if err != nil {
		t.Fatal(err)
	}
	post := func() *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/annotate", bytes.NewReader(payload)))
		return rec
	}
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
		}
	}

	// Hold the only slot so the leader's fill queues behind it while a
	// follower joins the flight.
	release, err := srv.Gate.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	const waiters = 3
	recs := make(chan *httptest.ResponseRecorder, waiters)
	go func() { recs <- post() }()
	waitFor("the leader's fill to queue", func() bool { return srv.Gate.QueueDepth() == 1 })
	for i := 1; i < waiters; i++ {
		go func() { recs <- post() }()
	}
	waitFor("the followers to join", func() bool { return srv.Cache.Stats().Coalesced == waiters-1 })
	release()

	for i := 0; i < waiters; i++ {
		if rec := <-recs; rec.Code != http.StatusInternalServerError || rec.Body.String() != "internal server error\n" {
			t.Fatalf("waiter answered %d %q, want Recover's 500", rec.Code, rec.Body)
		}
	}
	if got := srv.rz.PanicsRecovered.Load(); got != 1 {
		t.Fatalf("panics_recovered = %d after one panicking fill, want 1", got)
	}
	if rec := post(); rec.Code != http.StatusInternalServerError {
		t.Fatalf("the miss after the panic answered %d", rec.Code)
	}
	if st := srv.Cache.Stats(); st.Entries != 0 || st.Misses != waiters+1 || st.Coalesced != waiters-1 {
		t.Fatalf("cache after two panicking fills: %+v", st)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/statz", nil))
	var st Stats
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Resilience.PanicsRecovered != 2 {
		t.Fatalf("/statz panics_recovered = %d, want 2", st.Resilience.PanicsRecovered)
	}
}
