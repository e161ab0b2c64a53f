package resilience

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"
)

// ErrFlightPanicked is what every waiter on a flight whose fn panicked gets.
var ErrFlightPanicked = errors.New("resilience: flight panicked")

// Flights coalesces concurrent identical calls into one run: the one
// single-flight of both hops, serve.Cache's misses and cluster.Router's
// forwards (DESIGN.md §8). The zero value is ready to use.
//
//   - A call joins the flight in progress for its key only when that
//     flight's id matches its own. A key held by another id (a hash
//     collision, another encoding) runs alone, unregistered, and the holder
//     keeps the slot: a collision can waste a run, never hand a caller
//     another request's value.
//   - fn runs once per flight on a goroutine of its own, on a context that
//     keeps the starter's values but not its cancellation, bounded by
//     timeout (≤ 0: no bound): a starter whose client leaves never poisons
//     the callers that joined it.
//   - Every caller waits for the value or its own ctx, whichever is first.
//   - A panic in fn is recovered and counted once; every waiter gets
//     ErrFlightPanicked and the flight retires, so the next call starts
//     afresh.
type Flights[K comparable, V any] struct {
	mu sync.Mutex
	//kw:guardedby(mu)
	m map[K]*flight[V]
}

type flight[V any] struct {
	id   string
	done chan struct{}
	val  V
	err  error
}

// Do returns fn's value for the flight (key, id), joining the flight in
// progress or starting it. joined is bumped when the call joins, before it
// waits; a panic in fn is added to panics (when non-nil).
func (f *Flights[K, V]) Do(ctx context.Context, key K, id string, timeout time.Duration, joined, panics *atomic.Int64, fn func(context.Context) V) (V, error) {
	f.mu.Lock()
	fl, taken := f.m[key]
	if taken && fl.id == id {
		f.mu.Unlock()
		joined.Add(1)
		return fl.wait(ctx)
	}
	fl = &flight[V]{id: id, done: make(chan struct{})}
	if !taken {
		if f.m == nil {
			f.m = make(map[K]*flight[V])
		}
		f.m[key] = fl
	}
	f.mu.Unlock()

	// noCancel is a package func, not a literal: a literal here would
	// capture the instantiation's dictionary and cost an allocation a call.
	fctx, cancel := context.WithoutCancel(ctx), context.CancelFunc(noCancel)
	if timeout > 0 {
		fctx, cancel = context.WithTimeout(fctx, timeout)
	}
	go func() {
		defer cancel()
		// This goroutine is no request's: a panic left to unwind it would
		// end the process.
		defer func() {
			if rec := recover(); rec != nil {
				if panics != nil {
					panics.Add(1)
				}
				fl.err = ErrFlightPanicked
			}
			if !taken {
				f.mu.Lock()
				delete(f.m, key)
				f.mu.Unlock()
			}
			close(fl.done)
		}()
		fl.val = fn(fctx)
	}()
	return fl.wait(ctx)
}

func noCancel() {}

func (fl *flight[V]) wait(ctx context.Context) (V, error) {
	select {
	case <-fl.done:
		return fl.val, fl.err
	case <-ctx.Done():
		var zero V
		return zero, ctx.Err()
	}
}
