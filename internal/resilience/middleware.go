package resilience

import "net/http"

// Recover is the outermost middleware: a panicking handler becomes a 500
// and a counter instead of a dead process. http.ErrAbortHandler is
// re-raised — it is net/http's sanctioned way to abort a response and
// must keep its meaning.
func Recover(c *Counters, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			rec := recover()
			if rec == nil {
				return
			}
			if rec == http.ErrAbortHandler {
				panic(rec)
			}
			c.PanicsRecovered.Add(1)
			// If the handler already wrote a header this is a no-op write
			// on a committed response; net/http logs and drops it, which
			// is the best that can be done mid-stream.
			InternalError(w)
		}()
		next.ServeHTTP(w, r)
	})
}

// InternalError writes the 500 that Recover answers a recovered panic with.
func InternalError(w http.ResponseWriter) {
	http.Error(w, "internal server error", http.StatusInternalServerError)
}

// Chaos is the deterministic fault-injection middleware. A nil injector
// disables it (the production default). For each request it draws the
// next fault plan, accounts it, and applies the immediate faults: a
// write-failing response writer and a pre-handler panic. The latency
// fault travels in the request context and is consumed by the handler
// inside its admission slot via ChaosDelay — injected slowness must hold
// capacity exactly like real slow work.
func Chaos(inj *Injector, c *Counters, next http.Handler) http.Handler {
	if inj == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		plan := inj.Plan()
		if plan.Latency > 0 {
			c.InjectedLatencies.Add(1)
		}
		if plan.FailWrite {
			c.InjectedWriteFailures.Add(1)
			w = &brokenWriter{ResponseWriter: w}
		}
		r = r.WithContext(WithPlan(r.Context(), plan))
		if plan.Panic {
			c.InjectedPanics.Add(1)
			panic("resilience: injected chaos panic")
		}
		next.ServeHTTP(w, r)
	})
}
