package resilience

import (
	"context"
	"errors"
	"math/rand/v2"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestFlightsStress drives Flights from many goroutines over a small key
// space: keys 0-3 each have one id, keys 4-7 two, so half the traffic
// forces id collisions. Callers cancel at random and one fn in eight
// panics. Every caller must get its own id's value, its own ctx error or
// ErrFlightPanicked; every call either runs fn or counts as a join; each
// panic is counted once; and the map is empty once the runs are done. A
// collision runs alone by contract, so the no-overlap check is on the
// collision-free keys, where every call either joins or registers.
// CHAOS_SEED picks the schedule.
func TestFlightsStress(t *testing.T) {
	seed := uint64(42)
	if v := os.Getenv("CHAOS_SEED"); v != "" {
		s, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			t.Fatalf("bad CHAOS_SEED %q: %v", v, err)
		}
		seed = s
	}
	const (
		workers = 8
		perW    = 300
		keys    = 8
	)
	var (
		f                Flights[int, string]
		joined, panics   atomic.Int64
		runs, panicked   atomic.Int64
		running          [keys / 2]atomic.Int64 // fns in progress on each collision-free key
		wg               sync.WaitGroup
		valued, canceled atomic.Int64
	)
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(seed, uint64(w)))
			for range perW {
				key := rng.IntN(keys)
				id := "a"
				if key >= keys/2 && rng.IntN(2) == 1 {
					id = "b"
				}
				ctx, cancel := context.WithCancel(context.Background())
				switch rng.IntN(4) {
				case 0:
					cancel()
				case 1:
					time.AfterFunc(time.Duration(rng.IntN(200))*time.Microsecond, cancel)
				}
				sleep := time.Duration(rng.IntN(200)) * time.Microsecond
				boom := rng.IntN(8) == 0
				v, err := f.Do(ctx, key, id, time.Second, &joined, &panics, func(context.Context) string {
					defer runs.Add(1)
					if key < keys/2 {
						if running[key].Add(1) > 1 {
							t.Errorf("two runs of key %d at once", key)
						}
						defer running[key].Add(-1)
					}
					time.Sleep(sleep)
					if boom {
						panicked.Add(1)
						panic("boom")
					}
					return id + "#"
				})
				switch {
				case err == nil && v == id+"#":
					valued.Add(1)
				case err != nil && errors.Is(err, ctx.Err()):
					canceled.Add(1)
				case errors.Is(err, ErrFlightPanicked):
				default:
					t.Errorf("call (%d, %q) got %q, %v", key, id, v, err)
				}
				cancel()
			}
		}()
	}
	wg.Wait()

	// Callers that gave up may have left runs going; each ends in well
	// under a millisecond. A run that outlived the wait below would mean
	// joins were overcounted.
	const calls = workers * perW
	for deadline := time.Now().Add(10 * time.Second); runs.Load()+joined.Load() != calls; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("runs %d + joins %d never reached %d calls", runs.Load(), joined.Load(), calls)
		}
	}
	time.Sleep(20 * time.Millisecond)
	if r, j := runs.Load(), joined.Load(); r+j != calls {
		t.Fatalf("runs %d + joins %d = %d calls, want %d", r, j, r+j, calls)
	}
	if p, want := panics.Load(), panicked.Load(); p != want {
		t.Fatalf("panics counted %d, want %d", p, want)
	}
	f.mu.Lock()
	left := len(f.m)
	f.mu.Unlock()
	if left != 0 {
		t.Fatalf("%d flights left registered", left)
	}
	if joined.Load() == 0 || valued.Load() == 0 || canceled.Load() == 0 || panicked.Load() == 0 {
		t.Fatalf("stress missed a path: joins %d values %d cancels %d panics %d",
			joined.Load(), valued.Load(), canceled.Load(), panicked.Load())
	}
}

type flightCtxKey struct{}

// TestFlightsTimeoutBoundsDetachedRun: a starter that is cancelled leaves
// its run going for the caller that joined it; the run keeps the starter's
// values, is bounded by timeout rather than by the starter, and with no
// timeout has no deadline at all.
func TestFlightsTimeoutBoundsDetachedRun(t *testing.T) {
	var f Flights[string, string]
	var joined atomic.Int64
	started := make(chan struct{})
	ctx, cancel := context.WithCancel(context.WithValue(context.Background(), flightCtxKey{}, "plan"))
	starter := make(chan error, 1)
	go func() {
		_, err := f.Do(ctx, "k", "doc", 200*time.Millisecond, &joined, nil, func(fctx context.Context) string {
			close(started)
			for joined.Load() == 0 { // the joiner must not find the flight gone
				time.Sleep(time.Millisecond)
			}
			<-fctx.Done()
			return fctx.Value(flightCtxKey{}).(string) + ": " + fctx.Err().Error()
		})
		starter <- err
	}()
	<-started
	follower := make(chan string, 1)
	go func() {
		v, err := f.Do(context.Background(), "k", "doc", 200*time.Millisecond, &joined, nil, func(context.Context) string {
			t.Error("joiner ran its own fn")
			return ""
		})
		if err != nil {
			t.Error(err)
		}
		follower <- v
	}()
	for joined.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-starter; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled starter got %v, want context.Canceled", err)
	}
	if v := <-follower; v != "plan: "+context.DeadlineExceeded.Error() {
		t.Fatalf("joiner got %q, want the run to end at its timeout with the starter's values", v)
	}

	v, err := f.Do(context.Background(), "k", "doc", 0, &joined, nil, func(fctx context.Context) string {
		_, ok := fctx.Deadline()
		return strconv.FormatBool(ok)
	})
	if err != nil || v != "false" {
		t.Fatalf("timeout 0: run had a deadline (%q, %v)", v, err)
	}
}
