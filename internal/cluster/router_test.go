package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"

	"contextrank/internal/resilience"
	"contextrank/internal/serve"
	"contextrank/internal/wire"
)

// fakeShard is an httptest-backed stand-in for a cmd/serve -shard process.
type fakeShard struct {
	name string
	srv  *httptest.Server

	mu sync.Mutex
	//kw:guardedby(mu)
	hits int
	//kw:guardedby(mu)
	lastDeadline string
}

func (f *fakeShard) Hits() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.hits
}

// newFakeShards builds n shards whose /v1/annotate responds via reply
// (given the shard index) and whose /healthz always succeeds.
func newFakeShards(t *testing.T, n int, reply func(i int, w http.ResponseWriter, r *http.Request)) []*fakeShard {
	t.Helper()
	shards := make([]*fakeShard, n)
	for i := 0; i < n; i++ {
		i := i
		f := &fakeShard{name: fmt.Sprintf("shard%d", i)}
		mux := http.NewServeMux()
		mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
			w.WriteHeader(http.StatusOK)
		})
		mux.HandleFunc("POST /v1/annotate", func(w http.ResponseWriter, r *http.Request) {
			f.mu.Lock()
			f.hits++
			f.lastDeadline = r.Header.Get(serve.DeadlineHeader)
			f.mu.Unlock()
			reply(i, w, r)
		})
		f.srv = httptest.NewServer(mux)
		t.Cleanup(f.srv.Close)
		shards[i] = f
	}
	return shards
}

func shardConfigs(shards []*fakeShard) []Shard {
	out := make([]Shard, len(shards))
	for i, f := range shards {
		out[i] = Shard{Name: f.name, URL: f.srv.URL}
	}
	return out
}

// annotateBody builds the request body for text/top.
func annotateBody(t *testing.T, text string, top int) []byte {
	t.Helper()
	b, err := json.Marshal(serve.AnnotateRequest{Text: text, Top: top})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// textWithPrimary finds a document text whose primary replica is the
// given shard index — the same pure derivation the router uses, so tests
// can aim requests at a chosen shard.
func textWithPrimary(t *testing.T, names []string, vnodes, want, top int) string {
	t.Helper()
	ring := NewRing(names, vnodes)
	for i := 0; i < 10_000; i++ {
		text := fmt.Sprintf("probe document %d", i)
		if ring.Replicas(wire.Key(text, top), 1)[0] == want {
			return text
		}
	}
	t.Fatal("no text found with the wanted primary")
	return ""
}

func postAnnotate(t *testing.T, h http.Handler, body []byte, hdr map[string]string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/v1/annotate", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// TestRouterRoutesToPrimary: a healthy cluster routes each request to its
// ring primary and relays the shard's bytes verbatim.
func TestRouterRoutesToPrimary(t *testing.T) {
	shards := newFakeShards(t, 3, func(i int, w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"from":%d}`, i)
	})
	rt, err := New(Config{Shards: shardConfigs(shards), Replication: 2, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	h := rt.Handler()
	names := []string{"shard0", "shard1", "shard2"}
	for want := 0; want < 3; want++ {
		text := textWithPrimary(t, names, 0, want, 3)
		rec := postAnnotate(t, h, annotateBody(t, text, 3), nil)
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
		if got := rec.Body.String(); got != fmt.Sprintf(`{"from":%d}`, want) {
			t.Fatalf("primary %d: body %q", want, got)
		}
	}
	snap := rt.counters.Snapshot()
	if snap.Requests != 3 || snap.Failovers != 0 || snap.Hedges != 0 {
		t.Fatalf("healthy routing bumped fault counters: %+v", snap)
	}
}

// TestRouterFailover: the primary answers a retryable status — overload
// shedding (429) or a server-side failure (5xx) — so the router must fail
// over to the second replica and count exactly one failover.
func TestRouterFailover(t *testing.T) {
	names := []string{"shard0", "shard1", "shard2"}
	text := textWithPrimary(t, names, 0, 0, 3)
	second := NewRing(names, 0).Replicas(wire.Key(text, 3), 2)[1]
	for _, status := range []int{
		http.StatusTooManyRequests, http.StatusInternalServerError, http.StatusBadGateway,
		http.StatusServiceUnavailable, http.StatusGatewayTimeout,
	} {
		shards := newFakeShards(t, 3, func(i int, w http.ResponseWriter, _ *http.Request) {
			if i == 0 {
				http.Error(w, "boom", status)
				return
			}
			fmt.Fprintf(w, `{"from":%d}`, i)
		})
		rt, err := New(Config{Shards: shardConfigs(shards), Replication: 2, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		rec := postAnnotate(t, rt.Handler(), annotateBody(t, text, 3), nil)
		if rec.Code != http.StatusOK {
			t.Fatalf("primary %d: status %d: %s", status, rec.Code, rec.Body)
		}
		if got := rec.Body.String(); got != fmt.Sprintf(`{"from":%d}`, second) {
			t.Fatalf("primary %d: failover body %q, want replica %d", status, got, second)
		}
		if snap := rt.counters.Snapshot(); snap.Failovers != 1 {
			t.Fatalf("primary %d: failovers = %d, want 1: %+v", status, snap.Failovers, snap)
		}
	}
}

// panicOnceDoer is a shard client whose first Do panics; later calls go
// through http.DefaultClient.
type panicOnceDoer struct{ once sync.Once }

func (d *panicOnceDoer) Do(req *http.Request) (*http.Response, error) {
	d.once.Do(func() { panic("boom") })
	return http.DefaultClient.Do(req)
}

// TestRouterAttemptPanicFailsOver: a panic in a shard attempt runs on the
// attempt's goroutine, out of the handler's Recover; it must be counted in
// panics_recovered and fail over like any failed attempt, not end the
// process.
func TestRouterAttemptPanicFailsOver(t *testing.T) {
	names := []string{"shard0", "shard1", "shard2"}
	text := textWithPrimary(t, names, 0, 0, 3)
	second := NewRing(names, 0).Replicas(wire.Key(text, 3), 2)[1]
	shards := newFakeShards(t, 3, func(i int, w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintf(w, `{"from":%d}`, i)
	})
	rt, err := New(Config{Shards: shardConfigs(shards), Replication: 2, Seed: 42, Client: &panicOnceDoer{}})
	if err != nil {
		t.Fatal(err)
	}
	rec := postAnnotate(t, rt.Handler(), annotateBody(t, text, 3), nil)
	if rec.Code != http.StatusOK || rec.Body.String() != fmt.Sprintf(`{"from":%d}`, second) {
		t.Fatalf("status %d body %q, want 200 from replica %d", rec.Code, rec.Body, second)
	}
	if st := rt.statz(); st.Router.Failovers != 1 || st.Resilience.PanicsRecovered != 1 {
		t.Fatalf("failovers=%d panics_recovered=%d, want 1/1", st.Router.Failovers, st.Resilience.PanicsRecovered)
	}
}

// TestRouterAllReplicasFail: every replica 500s; the router exhausts the
// set and answers 503 with Retry-After.
func TestRouterAllReplicasFail(t *testing.T) {
	shards := newFakeShards(t, 3, func(_ int, w http.ResponseWriter, _ *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	})
	rt, err := New(Config{Shards: shardConfigs(shards), Replication: 3, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	rec := postAnnotate(t, rt.Handler(), annotateBody(t, "doc", 3), nil)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
	snap := rt.counters.Snapshot()
	if snap.ReplicasExhausted != 1 || snap.Failovers != 2 {
		t.Fatalf("exhausted=%d failovers=%d, want 1/2: %+v", snap.ReplicasExhausted, snap.Failovers, snap)
	}
}

// TestRouterInjectedDownFailover: chaos ShardDownP=1 downs every primary
// attempt; every request must fail over and still return the replica's
// bytes, with injected_downs == failovers == requests.
func TestRouterInjectedDownFailover(t *testing.T) {
	shards := newFakeShards(t, 3, func(i int, w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintf(w, `{"from":%d}`, i)
	})
	inj := resilience.NewInjector(resilience.InjectorConfig{Seed: 42, ShardDownP: 1})
	rt, err := New(Config{Shards: shardConfigs(shards), Replication: 2, Seed: 42, Injector: inj})
	if err != nil {
		t.Fatal(err)
	}
	h := rt.Handler()
	const n = 8
	names := []string{"shard0", "shard1", "shard2"}
	ring := NewRing(names, 0)
	for i := 0; i < n; i++ {
		text := fmt.Sprintf("chaos doc %d", i)
		rec := postAnnotate(t, h, annotateBody(t, text, 3), nil)
		if rec.Code != http.StatusOK {
			t.Fatalf("req %d: status %d: %s", i, rec.Code, rec.Body)
		}
		second := ring.Replicas(wire.Key(text, 3), 2)[1]
		if got := rec.Body.String(); got != fmt.Sprintf(`{"from":%d}`, second) {
			t.Fatalf("req %d: body %q, want second replica %d", i, got, second)
		}
	}
	snap := rt.counters.Snapshot()
	if snap.InjectedDowns != n || snap.Failovers != n {
		t.Fatalf("injected_downs=%d failovers=%d, want %d/%d", snap.InjectedDowns, snap.Failovers, n, n)
	}
}

// TestRouterHedgeWins: the primary is slow (far beyond the hedge delay),
// so the hedge fires, the second replica answers, and the duplicate is
// cancelled — hedges == hedge_wins == 1.
func TestRouterHedgeWins(t *testing.T) {
	names := []string{"shard0", "shard1", "shard2"}
	text := textWithPrimary(t, names, 0, 0, 3)
	release := make(chan struct{})
	shards := newFakeShards(t, 3, func(i int, w http.ResponseWriter, r *http.Request) {
		if i == 0 {
			// Drain the body so the server's background read can notice
			// the router cancelling the duplicate, then park: a stuck shard.
			_, _ = io.Copy(io.Discard, r.Body)
			select {
			case <-r.Context().Done():
			case <-release:
			}
			return
		}
		fmt.Fprintf(w, `{"from":%d}`, i)
	})
	t.Cleanup(func() { close(release) }) // runs before the servers' Close
	rt, err := New(Config{
		Shards: shardConfigs(shards), Replication: 2, Seed: 42,
		HedgeDelay: 20 * time.Millisecond, HedgeJitter: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	rec := postAnnotate(t, rt.Handler(), annotateBody(t, text, 3), nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	second := NewRing(names, 0).Replicas(wire.Key(text, 3), 2)[1]
	if got := rec.Body.String(); got != fmt.Sprintf(`{"from":%d}`, second) {
		t.Fatalf("hedge body %q, want replica %d", got, second)
	}
	snap := rt.counters.Snapshot()
	if snap.Hedges != 1 || snap.HedgeWins != 1 || snap.Failovers != 0 {
		t.Fatalf("hedges=%d wins=%d failovers=%d, want 1/1/0", snap.Hedges, snap.HedgeWins, snap.Failovers)
	}
}

// TestRouterBreakerSchedule drives a replication-1 router against a shard
// that always 500s and asserts the exact closed→open→half-open→open walk
// the seeded cooldown schedule predicts.
func TestRouterBreakerSchedule(t *testing.T) {
	shards := newFakeShards(t, 1, func(_ int, w http.ResponseWriter, _ *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	})
	cfg := Config{
		Shards: shardConfigs(shards), Replication: 1,
		Seed: 42, BreakerThreshold: 2, BreakerMinSkip: 2, BreakerMaxSkip: 4,
	}
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := rt.Handler()
	bcfg := resilience.BreakerConfig{Threshold: 2, MinSkip: 2, MaxSkip: 4, Seed: 42, Stream: 0}

	// Replay the schedule: threshold failures trip the breaker, then
	// cooldown(0) requests are shed, then one probe fails and re-opens
	// with cooldown(1).
	do := func() { postAnnotate(t, h, annotateBody(t, "doc", 3), nil) }
	for i := 0; i < 2; i++ { // trip
		do()
	}
	if st := rt.shards[0].breaker.State(); st != resilience.BreakerOpen {
		t.Fatalf("after threshold failures breaker is %v", st)
	}
	cool0 := resilience.BreakerCooldownAt(bcfg, 0)
	for i := 0; i < cool0; i++ {
		do()
	}
	snap := rt.counters.Snapshot()
	if snap.BreakerSkips != int64(cool0) {
		t.Fatalf("breaker_skips=%d, want cooldown(0)=%d", snap.BreakerSkips, cool0)
	}
	do() // the probe: fails, re-opens with cooldown(1)
	snap = rt.counters.Snapshot()
	if snap.BreakerProbes != 1 {
		t.Fatalf("breaker_probes=%d, want 1", snap.BreakerProbes)
	}
	if st := rt.shards[0].breaker.State(); st != resilience.BreakerOpen {
		t.Fatalf("failed probe left breaker %v", st)
	}
	if opens := rt.shards[0].breaker.Opens(); opens != 2 {
		t.Fatalf("opens=%d, want 2", opens)
	}
	// Shed requests (skips + exhausted short-circuits) never hit the shard.
	if hits := shards[0].Hits(); hits != 3 { // 2 trips + 1 probe
		t.Fatalf("shard saw %d requests, want 3", hits)
	}
}

// TestRouterProbeMarksDeadShardUnhealthy: a dead shard fails the probe
// round, gets skipped with health_skips, and traffic lands on a replica.
func TestRouterProbeMarksDeadShardUnhealthy(t *testing.T) {
	names := []string{"shard0", "shard1", "shard2"}
	text := textWithPrimary(t, names, 0, 0, 3)
	shards := newFakeShards(t, 3, func(i int, w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintf(w, `{"from":%d}`, i)
	})
	shards[0].srv.Close() // crash the primary before the probe round
	rt, err := New(Config{Shards: shardConfigs(shards), Replication: 2, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	h := rt.Handler()
	probeRec := httptest.NewRecorder()
	h.ServeHTTP(probeRec, httptest.NewRequest(http.MethodPost, "/admin/probe", nil))
	var pr ProbeResult
	if err := json.Unmarshal(probeRec.Body.Bytes(), &pr); err != nil {
		t.Fatal(err)
	}
	if pr.Healthy[0] || !pr.Healthy[1] || !pr.Healthy[2] {
		t.Fatalf("probe health %v, want [false true true]", pr.Healthy)
	}
	rec := postAnnotate(t, h, annotateBody(t, text, 3), nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	second := NewRing(names, 0).Replicas(wire.Key(text, 3), 2)[1]
	if got := rec.Body.String(); got != fmt.Sprintf(`{"from":%d}`, second) {
		t.Fatalf("body %q, want healthy replica %d", got, second)
	}
	snap := rt.counters.Snapshot()
	if snap.HealthSkips != 1 || snap.Failovers != 0 {
		t.Fatalf("health_skips=%d failovers=%d, want 1/0", snap.HealthSkips, snap.Failovers)
	}
}

// TestRouterInjectedFlap: FlapP=1 forces every probe of every shard to
// fail even though the shards are alive; with no healthy replicas the
// router answers 503 and counts the planned flaps exactly.
func TestRouterInjectedFlap(t *testing.T) {
	shards := newFakeShards(t, 3, func(i int, w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintf(w, `{"from":%d}`, i)
	})
	inj := resilience.NewInjector(resilience.InjectorConfig{Seed: 42, FlapP: 1})
	rt, err := New(Config{Shards: shardConfigs(shards), Replication: 2, Seed: 42, Injector: inj})
	if err != nil {
		t.Fatal(err)
	}
	h := rt.Handler()
	probeRec := httptest.NewRecorder()
	h.ServeHTTP(probeRec, httptest.NewRequest(http.MethodPost, "/admin/probe", nil))
	rec := postAnnotate(t, h, annotateBody(t, "doc", 3), nil)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503 with all shards flapped", rec.Code)
	}
	snap := rt.counters.Snapshot()
	if snap.InjectedFlaps != 3 || snap.HealthSkips != 2 || snap.ReplicasExhausted != 1 {
		t.Fatalf("flaps=%d health_skips=%d exhausted=%d, want 3/2/1", snap.InjectedFlaps, snap.HealthSkips, snap.ReplicasExhausted)
	}
}

// TestRouterCoalescesIdenticalRequests: concurrent identical requests
// forward once; followers replay the leader's bytes and are counted.
func TestRouterCoalescesIdenticalRequests(t *testing.T) {
	started := make(chan struct{})
	proceed := make(chan struct{})
	var once sync.Once
	shards := newFakeShards(t, 3, func(i int, w http.ResponseWriter, _ *http.Request) {
		once.Do(func() { close(started) })
		<-proceed
		fmt.Fprintf(w, `{"from":%d}`, i)
	})
	rt, err := New(Config{Shards: shardConfigs(shards), Replication: 2, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	h := rt.Handler()
	body := annotateBody(t, "same doc", 3)

	const followers = 4
	var wg sync.WaitGroup
	bodies := make([]string, followers+1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		bodies[0] = postAnnotate(t, h, body, nil).Body.String()
	}()
	<-started
	for i := 1; i <= followers; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			bodies[i] = postAnnotate(t, h, body, nil).Body.String()
		}()
	}
	// Wait for every follower to park on the leader's flight, then release.
	for rt.counters.Snapshot().Coalesced < followers {
		time.Sleep(time.Millisecond)
	}
	close(proceed)
	wg.Wait()

	for i, b := range bodies {
		if b != bodies[0] {
			t.Fatalf("caller %d body %q differs from leader %q", i, b, bodies[0])
		}
	}
	total := 0
	for _, f := range shards {
		total += f.Hits()
	}
	if total != 1 {
		t.Fatalf("coalesced requests hit shards %d times, want 1", total)
	}
	if snap := rt.counters.Snapshot(); snap.Coalesced != followers {
		t.Fatalf("coalesced=%d, want %d", snap.Coalesced, followers)
	}
}

// TestRouterQuota: a burst-2 rate-0 quota admits two requests for a
// tenant, 429s the third with Retry-After, and leaves other tenants
// untouched.
func TestRouterQuota(t *testing.T) {
	shards := newFakeShards(t, 2, func(i int, w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintf(w, `{"from":%d}`, i)
	})
	rt, err := New(Config{
		Shards: shardConfigs(shards), Replication: 1, Seed: 42,
		Quota: resilience.NewQuota(resilience.QuotaConfig{Burst: 2}),
	})
	if err != nil {
		t.Fatal(err)
	}
	h := rt.Handler()
	hdr := map[string]string{serve.TenantHeader: "acme"}
	for i := 0; i < 2; i++ {
		if rec := postAnnotate(t, h, annotateBody(t, "doc", 3), hdr); rec.Code != http.StatusOK {
			t.Fatalf("request %d: status %d", i, rec.Code)
		}
	}
	rec := postAnnotate(t, h, annotateBody(t, "doc", 3), hdr)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("third request: status %d, want 429", rec.Code)
	}
	if ra, err := strconv.Atoi(rec.Header().Get("Retry-After")); err != nil || ra < 1 {
		t.Fatalf("429 Retry-After %q", rec.Header().Get("Retry-After"))
	}
	if rec := postAnnotate(t, h, annotateBody(t, "doc", 3), map[string]string{serve.TenantHeader: "other"}); rec.Code != http.StatusOK {
		t.Fatalf("other tenant: status %d", rec.Code)
	}
	var st Statz
	statRec := httptest.NewRecorder()
	h.ServeHTTP(statRec, httptest.NewRequest(http.MethodGet, "/statz", nil))
	if err := json.Unmarshal(statRec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Resilience.QuotaDenied != 1 || st.QuotaTenants != 2 {
		t.Fatalf("quota_denied=%d tenants=%d, want 1/2", st.Resilience.QuotaDenied, st.QuotaTenants)
	}
	// A quota refusal never consumes routing work.
	if st.Router.Requests != 3 {
		t.Fatalf("requests=%d, want 3 (the denied one is not routed)", st.Router.Requests)
	}
}

// TestRouterForwardsDeadline: the router must hand the shard its
// remaining budget via X-Deadline-Ms, bounded by the request timeout.
func TestRouterForwardsDeadline(t *testing.T) {
	shards := newFakeShards(t, 1, func(_ int, w http.ResponseWriter, _ *http.Request) {
		fmt.Fprint(w, `{}`)
	})
	rt, err := New(Config{Shards: shardConfigs(shards), Replication: 1, Seed: 42, RequestTimeout: 700 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if rec := postAnnotate(t, rt.Handler(), annotateBody(t, "doc", 3), nil); rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	shards[0].mu.Lock()
	dl := shards[0].lastDeadline
	shards[0].mu.Unlock()
	ms, err := strconv.Atoi(dl)
	if err != nil || ms <= 0 || ms > 700 {
		t.Fatalf("forwarded deadline %q, want integer in (0, 700]", dl)
	}
}

// TestRouterPassesThroughShardErrors: a 4xx from the shard (the request's
// own fault: malformed, unknown route, too large) is final — no failover,
// body relayed verbatim.
func TestRouterPassesThroughShardErrors(t *testing.T) {
	for _, status := range []int{http.StatusBadRequest, http.StatusNotFound, http.StatusRequestEntityTooLarge} {
		shards := newFakeShards(t, 2, func(i int, w http.ResponseWriter, _ *http.Request) {
			http.Error(w, "bad request: empty text", status)
		})
		rt, err := New(Config{Shards: shardConfigs(shards), Replication: 2, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		rec := postAnnotate(t, rt.Handler(), []byte(`{"text":""}`), nil)
		if rec.Code != status {
			t.Fatalf("status %d, want %d passthrough", rec.Code, status)
		}
		if rec.Body.String() != "bad request: empty text\n" {
			t.Fatalf("%d body %q not relayed verbatim", status, rec.Body)
		}
		if snap := rt.counters.Snapshot(); snap.Failovers != 0 {
			t.Fatalf("%d triggered failover: %+v", status, snap)
		}
		if total := shards[0].Hits() + shards[1].Hits(); total != 1 {
			t.Fatalf("%d hit %d shards, want 1", status, total)
		}
	}
}

// TestRouterStatzShape pins the /statz document: the router block with
// every counter, the per-shard health/breaker block, and the resilience
// snapshot — the shape the ops runbook and the differential test rely on.
func TestRouterStatzShape(t *testing.T) {
	shards := newFakeShards(t, 2, func(i int, w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintf(w, `{"from":%d}`, i)
	})
	rt, err := New(Config{Shards: shardConfigs(shards), Replication: 2, Seed: 42, BreakerThreshold: 3})
	if err != nil {
		t.Fatal(err)
	}
	h := rt.Handler()
	postAnnotate(t, h, annotateBody(t, "doc", 3), nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/statz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("statz status %d", rec.Code)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"router", "shards", "resilience"} {
		if _, ok := doc[key]; !ok {
			t.Fatalf("statz missing %q: %s", key, rec.Body)
		}
	}
	var router map[string]int64
	if err := json.Unmarshal(doc["router"], &router); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{
		"requests", "coalesced", "failovers", "hedges", "hedge_wins",
		"breaker_skips", "breaker_probes", "health_skips",
		"replicas_exhausted", "timeouts", "injected_downs", "injected_slows", "injected_flaps",
	} {
		if _, ok := router[key]; !ok {
			t.Fatalf("router block missing %q: %s", key, doc["router"])
		}
	}
	var sh []StatzShard
	if err := json.Unmarshal(doc["shards"], &sh); err != nil {
		t.Fatal(err)
	}
	if len(sh) != 2 || sh[0].Name != "shard0" || sh[0].BreakerState != "closed" || !sh[0].Healthy {
		t.Fatalf("shard block %+v", sh)
	}
	if router["requests"] != 1 {
		t.Fatalf("requests=%d, want 1", router["requests"])
	}
}

// TestRouterReadyzDrain: flipping readiness off turns /readyz into a 503
// while /healthz stays 200 — the drain window load balancers watch.
func TestRouterReadyzDrain(t *testing.T) {
	shards := newFakeShards(t, 1, func(_ int, w http.ResponseWriter, _ *http.Request) {
		fmt.Fprint(w, `{}`)
	})
	rt, err := New(Config{Shards: shardConfigs(shards), Replication: 1, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	h := rt.Handler()
	get := func(path string) int {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		return rec.Code
	}
	if get("/readyz") != http.StatusOK || get("/healthz") != http.StatusOK {
		t.Fatal("fresh router not ready/healthy")
	}
	rt.SetReady(false)
	if get("/readyz") != http.StatusServiceUnavailable {
		t.Fatal("draining router still ready")
	}
	if get("/healthz") != http.StatusOK {
		t.Fatal("draining router reported dead")
	}
}

// TestRouterBadShardConfig: construction must reject empty topologies and
// unnamed shards.
func TestRouterBadShardConfig(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("empty topology accepted")
	}
	if _, err := New(Config{Shards: []Shard{{Name: "", URL: "http://x"}}}); err == nil {
		t.Fatal("unnamed shard accepted")
	}
	if _, err := New(Config{Shards: []Shard{{Name: "a", URL: ""}}}); err == nil {
		t.Fatal("shard without url accepted")
	}
}
