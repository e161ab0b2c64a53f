package cluster

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// TestRouterSameKeyOtherBodyRoutesAlone: flights are matched on the raw
// body, so a request whose key is taken by a different body — here another
// encoding of the same (text, top); a hash collision looks the same — routes
// on its own. It must neither be handed the flight's response nor retire
// the flight and publish its own response to that flight's followers.
func TestRouterSameKeyOtherBodyRoutesAlone(t *testing.T) {
	bodyA := []byte(`{"text":"same doc","top":3}`)
	bodyB := []byte(`{"top":3,"text":"same doc"}`)
	started := make(chan struct{})
	proceed := make(chan struct{})
	var once sync.Once
	shards := newFakeShards(t, 3, func(_ int, w http.ResponseWriter, r *http.Request) {
		got, _ := io.ReadAll(r.Body)
		if string(got) == string(bodyA) {
			once.Do(func() { close(started) })
			<-proceed
		}
		_, _ = w.Write(got) // echo: each request can tell whose response it got
	})
	rt, err := New(Config{Shards: shardConfigs(shards), Replication: 2, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	h := rt.Handler()

	var wg sync.WaitGroup
	gotA := make([]string, 2) // A's leader and its follower
	wg.Add(1)
	go func() {
		defer wg.Done()
		gotA[0] = postAnnotate(t, h, bodyA, nil).Body.String()
	}()
	<-started
	wg.Add(1)
	go func() {
		defer wg.Done()
		gotA[1] = postAnnotate(t, h, bodyA, nil).Body.String()
	}()
	for rt.counters.Snapshot().Coalesced < 1 {
		time.Sleep(time.Millisecond)
	}

	// B has A's key and is not A: it comes back while A is still parked.
	if got := postAnnotate(t, h, bodyB, nil).Body.String(); got != string(bodyB) {
		t.Fatalf("B was answered %q, want its own echo", got)
	}
	if snap := rt.counters.Snapshot(); snap.Coalesced != 1 {
		t.Fatalf("B coalesced onto A's flight: %+v", snap)
	}
	close(proceed)
	wg.Wait()
	for i, got := range gotA {
		if got != string(bodyA) {
			t.Fatalf("A caller %d was answered %q, want A's echo", i, got)
		}
	}
	total := 0
	for _, f := range shards {
		total += f.Hits()
	}
	if total != 2 {
		t.Fatalf("shards saw %d requests, want 2 (A once, B once)", total)
	}
}

// TestRouterLeaderCancelDoesNotPoisonFollowers: the forward is detached
// from the request that started it, so a leader whose client goes away
// mid-forward gets its 504 alone, and the follower it was coalescing gets
// the shard's response. Only the leader counts as a timeout.
func TestRouterLeaderCancelDoesNotPoisonFollowers(t *testing.T) {
	started := make(chan struct{})
	proceed := make(chan struct{})
	var once sync.Once
	shards := newFakeShards(t, 3, func(_ int, w http.ResponseWriter, _ *http.Request) {
		once.Do(func() { close(started) })
		<-proceed
		_, _ = w.Write([]byte(`{"routed":true}`))
	})
	rt, err := New(Config{Shards: shardConfigs(shards), Replication: 2, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	h := rt.Handler()
	body := annotateBody(t, "same doc", 3)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	leader := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		req := httptest.NewRequest(http.MethodPost, "/v1/annotate", bytes.NewReader(body)).WithContext(ctx)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		leader <- rec
	}()
	<-started
	follower := make(chan *httptest.ResponseRecorder, 1)
	go func() { follower <- postAnnotate(t, h, body, nil) }()
	for rt.counters.Snapshot().Coalesced < 1 {
		time.Sleep(time.Millisecond)
	}

	cancel()
	if rec := <-leader; rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("cancelled leader: status %d, want 504", rec.Code)
	}
	close(proceed)
	if rec := <-follower; rec.Code != http.StatusOK || rec.Body.String() != `{"routed":true}` {
		t.Fatalf("follower: status %d body %q, want the shard's 200", rec.Code, rec.Body)
	}
	if snap := rt.counters.Snapshot(); snap.Timeouts != 1 {
		t.Fatalf("timeouts=%d, want 1 (the leader only)", snap.Timeouts)
	}
}
