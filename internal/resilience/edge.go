package resilience

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sync/atomic"
	"time"
)

// RetryAfterHint is the Retry-After value, in whole seconds, sent with a
// refusal that carries no better estimate: a shed or deadline-expired
// render, a draining /readyz and the router's own 503s and 504s. Shed load
// should come back after the short wait queue has had a chance to drain,
// not immediately and not never.
const RetryAfterHint = "1"

// NewHTTPServer returns the http.Server a serving binary listens with. The
// read-side limits are fixed; writeTimeout is the binary's own: it must
// exceed the worst admitted request, so the server-level timeout never
// fires before the application deadline has had a chance to answer.
func NewHTTPServer(h http.Handler, writeTimeout time.Duration) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       15 * time.Second,
		WriteTimeout:      writeTimeout,
		IdleTimeout:       120 * time.Second,
	}
}

// Readiness is a serving process's /readyz state. Its zero value is ready;
// a drain flips it off. Liveness (/healthz) does not read it: a draining
// process is still alive.
type Readiness struct {
	draining atomic.Bool
}

// SetReady flips the /readyz state.
func (r *Readiness) SetReady(ready bool) { r.draining.Store(!ready) }

// Ready reports the current readiness state.
func (r *Readiness) Ready() bool { return !r.draining.Load() }

// MountProbes registers GET /healthz (always 200 "ok") and GET /readyz (200
// "ready", or 503 with Retry-After while draining) on mux. A failed write of
// a 200's body is counted in writeErrors; nil discards it.
func (r *Readiness) MountProbes(mux *http.ServeMux, writeErrors *atomic.Int64) {
	ok := func(w http.ResponseWriter, body string) {
		w.WriteHeader(http.StatusOK)
		if _, err := io.WriteString(w, body); err != nil && writeErrors != nil {
			writeErrors.Add(1)
		}
	}
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) { ok(w, "ok\n") })
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, _ *http.Request) {
		if !r.Ready() {
			w.Header().Set("Retry-After", RetryAfterHint)
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		ok(w, "ready\n")
	})
}

// ServeUntilSignal serves hs on ln until the listener fails or a signal
// arrives on sig. On a signal it flips ready off (load balancers stop
// sending traffic), stops accepting, and drains in-flight requests within
// drain. A drained server returns nil, for a clean exit 0; a drain that
// overruns its deadline returns an error wrapping
// context.DeadlineExceeded. http.ErrServerClosed is the normal end of a
// drained server, never an error. Progress is logged to logw.
func ServeUntilSignal(hs *http.Server, ln net.Listener, sig <-chan os.Signal, drain time.Duration, ready *Readiness, logw io.Writer) error {
	errCh := make(chan error, 1)
	go func() { errCh <- hs.Serve(ln) }()
	select {
	case err := <-errCh:
		if errors.Is(err, http.ErrServerClosed) {
			return nil
		}
		return err
	case s := <-sig:
		_, _ = fmt.Fprintf(logw, "signal %v: draining (deadline %s)\n", s, drain) // the log is best effort
		ready.SetReady(false)
		ctx, cancel := context.WithTimeout(context.Background(), drain) //kwlint:ignore ctxflow — drain root: the process, not a request, owns this deadline
		defer cancel()
		if err := hs.Shutdown(ctx); err != nil {
			return fmt.Errorf("drain incomplete: %w", err)
		}
		if err := <-errCh; !errors.Is(err, http.ErrServerClosed) && err != nil {
			return err
		}
		_, _ = fmt.Fprintln(logw, "drained cleanly")
		return nil
	}
}
