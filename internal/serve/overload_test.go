package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"sync"
	"testing"
	"time"

	"contextrank/internal/resilience"
)

// TestShedDeterministic pins the shedding policy without timing: hold the
// gate's only slot, then observe both endpoints' shed behavior.
func TestShedDeterministic(t *testing.T) {
	s := testServer(t)
	s.Gate = resilience.NewGate(1, 0, 0)
	h := s.Handler()

	release, err := s.Gate.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	// /v1/annotate degrades: 200, degraded flag set, relevance zeroed.
	rec := postJSON(t, h, "/v1/annotate", AnnotateRequest{Text: "the alphaword and betaword with ctx"})
	if rec.Code != http.StatusOK {
		t.Fatalf("shed annotate status = %d, want 200 degraded", rec.Code)
	}
	var resp AnnotateResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Degraded {
		t.Fatal("shed annotate response not flagged degraded")
	}
	if len(resp.Annotations) == 0 {
		t.Fatal("degraded response carries no annotations")
	}
	for _, a := range resp.Annotations {
		if a.Relevance != 0 {
			t.Fatalf("degraded annotation has relevance: %+v", a)
		}
	}

	// /v1/render sheds hard: 429 + Retry-After.
	rec2 := postJSON(t, h, "/v1/render", AnnotateRequest{Text: "the alphaword appeared"})
	if rec2.Code != http.StatusTooManyRequests {
		t.Fatalf("shed render status = %d, want 429", rec2.Code)
	}
	if rec2.Header().Get("Retry-After") == "" {
		t.Fatal("429 missing Retry-After")
	}

	snap := s.rz.Snapshot()
	if snap.Shed != 2 || snap.Degraded != 1 {
		t.Fatalf("counters = %+v, want Shed=2 Degraded=1", snap)
	}

	// Slot freed: full pipeline resumes.
	release()
	rec3 := postJSON(t, h, "/v1/annotate", AnnotateRequest{Text: "the alphaword and betaword with ctx"})
	var resp3 AnnotateResponse
	if err := json.Unmarshal(rec3.Body.Bytes(), &resp3); err != nil {
		t.Fatal(err)
	}
	if resp3.Degraded {
		t.Fatal("request after release still degraded")
	}
}

// TestOverloadStress is the httptest-driven overload proof: with gate
// capacity 2 and 12 requests in flight at once (in-slot latency holds the
// slots), the excess is answered degraded, nothing errors, and the shed
// counter matches the degraded responses. Runs under -race in CI.
func TestOverloadStress(t *testing.T) {
	s := testServer(t)
	const capacity = 2
	s.Gate = resilience.NewGate(capacity, 0, 0)
	s.Timeout = 5 * time.Second
	// LatencyP=1: every admitted request sleeps 300ms inside its slot.
	s.Injector = resilience.NewInjector(resilience.InjectorConfig{
		Seed: 1, LatencyP: 1, LatencySpike: 300 * time.Millisecond,
	})
	h := s.Handler()

	const n = 12
	start := make(chan struct{})
	var wg sync.WaitGroup
	var mu sync.Mutex
	var degraded, full int
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			rec := postJSON(t, h, "/v1/annotate", AnnotateRequest{Text: "the alphaword and betaword with ctx"})
			if rec.Code != http.StatusOK {
				t.Errorf("status = %d", rec.Code)
				return
			}
			var resp AnnotateResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Error(err)
				return
			}
			mu.Lock()
			if resp.Degraded {
				degraded++
			} else {
				full++
			}
			mu.Unlock()
		}()
	}
	close(start)
	wg.Wait()

	if degraded+full != n {
		t.Fatalf("degraded=%d full=%d, want %d total", degraded, full, n)
	}
	if full < capacity {
		t.Fatalf("full=%d, at least the %d slot holders must complete normally", full, capacity)
	}
	// All n requests arrive within the 300ms spike window, so at most the
	// slot holders (and stragglers that caught a freed slot) run the full
	// pipeline; the bulk must have been shed into the degraded path.
	if degraded < n-2*capacity {
		t.Fatalf("degraded=%d, want ≥ %d under saturation", degraded, n-2*capacity)
	}
	snap := s.rz.Snapshot()
	if snap.Shed != int64(degraded) {
		t.Fatalf("Shed counter %d != degraded responses %d", snap.Shed, degraded)
	}
	if s.Gate.InFlight() != 0 || s.Gate.QueueDepth() != 0 {
		t.Fatalf("gate not drained: inflight=%d queued=%d", s.Gate.InFlight(), s.Gate.QueueDepth())
	}
}

// TestDeadlineDegradesWithinGrace: a 2s injected spike against a 50ms
// request deadline must produce a degraded 200 well before the spike
// would have elapsed — the sleep is cut at the deadline and the fallback
// is bounded. The 1s grace window absorbs CI scheduler noise.
func TestDeadlineDegradesWithinGrace(t *testing.T) {
	s := testServer(t)
	s.Timeout = 50 * time.Millisecond
	s.Injector = resilience.NewInjector(resilience.InjectorConfig{
		Seed: 1, LatencyP: 1, LatencySpike: 2 * time.Second,
	})
	h := s.Handler()

	start := time.Now()
	rec := postJSON(t, h, "/v1/annotate", AnnotateRequest{Text: "the alphaword and betaword with ctx"})
	elapsed := time.Since(start)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	var resp AnnotateResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Degraded {
		t.Fatal("deadline-expired request not degraded")
	}
	if elapsed > s.Timeout+time.Second {
		t.Fatalf("response took %v, deadline %v + 1s grace exceeded", elapsed, s.Timeout)
	}
	snap := s.rz.Snapshot()
	if snap.DeadlineExpired != 1 || snap.Degraded != 1 {
		t.Fatalf("counters = %+v, want DeadlineExpired=1 Degraded=1", snap)
	}

	// Render cannot degrade: same spike → 503 with Retry-After.
	rec2 := postJSON(t, h, "/v1/render", AnnotateRequest{Text: "the alphaword appeared"})
	if rec2.Code != http.StatusServiceUnavailable {
		t.Fatalf("render deadline status = %d, want 503", rec2.Code)
	}
	if rec2.Header().Get("Retry-After") == "" {
		t.Fatal("503 missing Retry-After")
	}
}

// TestQueuedRequestAdmittedAfterRelease: the short wait queue actually
// waits — a queued request is admitted (not shed) once a slot frees
// within maxWait.
func TestQueuedRequestAdmittedAfterRelease(t *testing.T) {
	s := testServer(t)
	s.Gate = resilience.NewGate(1, 1, 2*time.Second)
	h := s.Handler()

	release, err := s.Gate.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan *AnnotateResponse, 1)
	go func() {
		rec := postJSON(t, h, "/v1/annotate", AnnotateRequest{Text: "the alphaword appeared"})
		var resp AnnotateResponse
		if rec.Code == http.StatusOK && json.Unmarshal(rec.Body.Bytes(), &resp) == nil {
			done <- &resp
			return
		}
		done <- nil
	}()
	for i := 0; i < 2000 && s.Gate.QueueDepth() == 0; i++ {
		time.Sleep(time.Millisecond)
	}
	if s.Gate.QueueDepth() != 1 {
		t.Fatal("request never queued")
	}
	release()
	resp := <-done
	if resp == nil {
		t.Fatal("queued request failed")
	}
	if resp.Degraded {
		t.Fatal("queued request degraded despite a slot freeing within maxWait")
	}
}
