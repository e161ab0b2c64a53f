package serve

import (
	"net/http"
	"os"
	"reflect"
	"strconv"
	"sync"
	"testing"
	"time"

	"contextrank/internal/resilience"
)

// chaosSeed lets the CI matrix pin different injector seeds (CHAOS_SEED);
// every assertion below derives its expectations from the seed, so any
// value must pass.
func chaosSeed(t *testing.T) int64 {
	t.Helper()
	v := os.Getenv("CHAOS_SEED")
	if v == "" {
		return 42
	}
	seed, err := strconv.ParseInt(v, 10, 64)
	if err != nil {
		t.Fatalf("bad CHAOS_SEED %q: %v", v, err)
	}
	return seed
}

func chaosConfig(seed int64) resilience.InjectorConfig {
	return resilience.InjectorConfig{
		Seed:         seed,
		LatencyP:     0.2,
		LatencySpike: time.Millisecond,
		PanicP:       0.3,
		WriteFailP:   0.25,
	}
}

// expectedFaults replays the pure planning function to derive the exact
// counters a run of n requests must produce.
func expectedFaults(cfg resilience.InjectorConfig, n int) (panics, writeFails, latencies, cleanWriteFails int) {
	ref := resilience.NewInjector(cfg)
	for i := 0; i < n; i++ {
		p := ref.PlanAt(i)
		if p.Panic {
			panics++
		}
		if p.FailWrite {
			writeFails++
		}
		if p.Latency > 0 {
			latencies++
		}
		// A write failure on a non-panicking annotate request surfaces as
		// exactly one counted write error (one JSON encode per response).
		if p.FailWrite && !p.Panic {
			cleanWriteFails++
		}
	}
	return
}

// chaosRun drives n sequential annotate requests through a chaos-injected
// server and returns the status-code sequence plus the counters.
func chaosRun(t *testing.T, cfg resilience.InjectorConfig, n int) ([]int, resilience.Snapshot, int64) {
	t.Helper()
	s := testServer(t)
	s.Injector = resilience.NewInjector(cfg)
	h := s.Handler()
	codes := make([]int, n)
	for i := 0; i < n; i++ {
		rec := postJSON(t, h, "/v1/annotate", AnnotateRequest{Text: "the alphaword and betaword with ctx"})
		codes[i] = rec.Code
	}
	return codes, s.rz.Snapshot(), s.writeErrors.Load()
}

// TestChaosCountersReproducible is the acceptance criterion: a fixed
// injector seed reproduces bit-identical recovery counters — panics
// recovered, write errors, fault tallies — and the identical status-code
// sequence, across independent server instances.
func TestChaosCountersReproducible(t *testing.T) {
	const n = 60
	cfg := chaosConfig(chaosSeed(t))

	codesA, snapA, weA := chaosRun(t, cfg, n)
	codesB, snapB, weB := chaosRun(t, cfg, n)
	if !reflect.DeepEqual(codesA, codesB) {
		t.Fatalf("status sequences diverged:\n%v\n%v", codesA, codesB)
	}
	if snapA != snapB || weA != weB {
		t.Fatalf("counters diverged:\n%+v we=%d\n%+v we=%d", snapA, weA, snapB, weB)
	}

	wantPanics, wantWF, wantLat, wantCleanWF := expectedFaults(cfg, n)
	if wantPanics == 0 || wantWF == 0 {
		t.Fatalf("degenerate fault mix for seed %d: panics=%d writefails=%d", cfg.Seed, wantPanics, wantWF)
	}
	if snapA.PanicsRecovered != int64(wantPanics) || snapA.InjectedPanics != int64(wantPanics) {
		t.Fatalf("PanicsRecovered=%d InjectedPanics=%d, want %d", snapA.PanicsRecovered, snapA.InjectedPanics, wantPanics)
	}
	if snapA.InjectedWriteFailures != int64(wantWF) {
		t.Fatalf("InjectedWriteFailures=%d, want %d", snapA.InjectedWriteFailures, wantWF)
	}
	if snapA.InjectedLatencies != int64(wantLat) {
		t.Fatalf("InjectedLatencies=%d, want %d", snapA.InjectedLatencies, wantLat)
	}
	if weA != int64(wantCleanWF) {
		t.Fatalf("writeErrors=%d, want %d (one per non-panicking write-failed response)", weA, wantCleanWF)
	}
	var got500 int
	for _, c := range codesA {
		if c == http.StatusInternalServerError {
			got500++
		}
	}
	if got500 != wantPanics {
		t.Fatalf("%d 500s, want %d (every injected panic, nothing else)", got500, wantPanics)
	}
}

// TestChaosCountersConcurrent: under concurrency the index→request
// assignment is scheduling-dependent, but the fault multiset — and so
// every total — is not. Runs under -race in CI.
func TestChaosCountersConcurrent(t *testing.T) {
	const n = 60
	cfg := chaosConfig(chaosSeed(t))
	s := testServer(t)
	s.Injector = resilience.NewInjector(cfg)
	h := s.Handler()

	var wg sync.WaitGroup
	var mu sync.Mutex
	var got500, got200 int
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rec := postJSON(t, h, "/v1/annotate", AnnotateRequest{Text: "the alphaword and betaword with ctx"})
			mu.Lock()
			defer mu.Unlock()
			switch rec.Code {
			case http.StatusInternalServerError:
				got500++
			case http.StatusOK:
				got200++
			}
		}()
	}
	wg.Wait()

	wantPanics, wantWF, wantLat, wantCleanWF := expectedFaults(cfg, n)
	snap := s.rz.Snapshot()
	if snap.PanicsRecovered != int64(wantPanics) {
		t.Fatalf("PanicsRecovered=%d, want %d", snap.PanicsRecovered, wantPanics)
	}
	if snap.InjectedWriteFailures != int64(wantWF) || snap.InjectedLatencies != int64(wantLat) {
		t.Fatalf("injected totals (%d,%d), want (%d,%d)", snap.InjectedWriteFailures, snap.InjectedLatencies, wantWF, wantLat)
	}
	if s.writeErrors.Load() != int64(wantCleanWF) {
		t.Fatalf("writeErrors=%d, want %d", s.writeErrors.Load(), wantCleanWF)
	}
	if got500 != wantPanics || got200 != n-wantPanics {
		t.Fatalf("codes 500=%d 200=%d, want %d/%d", got500, got200, wantPanics, n-wantPanics)
	}
}
