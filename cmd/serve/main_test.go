package main

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"contextrank/internal/resilience"
	"contextrank/internal/serve"
)

// TestGracefulDrain proves the SIGTERM contract without building a world:
// a slow in-flight request must complete, new connections must be
// refused, readiness must flip, and the shared drain must return nil (the
// process exits 0) within the drain deadline.
func TestGracefulDrain(t *testing.T) {
	srv := serve.NewServer(nil, nil) // only its readiness is used here
	inFlight := make(chan struct{})
	var completed atomic.Int64
	handler := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/readyz" {
			if !srv.Ready() {
				http.Error(w, "draining", http.StatusServiceUnavailable)
				return
			}
			w.WriteHeader(http.StatusOK)
			return
		}
		close(inFlight)
		time.Sleep(300 * time.Millisecond)
		completed.Add(1)
		w.WriteHeader(http.StatusOK)
	})
	httpServer := &http.Server{Handler: handler}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + ln.Addr().String()

	sig := make(chan os.Signal, 1)
	done := make(chan error, 1)
	go func() {
		done <- resilience.ServeUntilSignal(httpServer, ln, sig, 5*time.Second, &srv.Readiness, io.Discard)
	}()

	// Put a slow request in flight, then deliver SIGTERM mid-request.
	reqErr := make(chan error, 1)
	go func() {
		resp, err := http.Get(base + "/slow")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				err = fmt.Errorf("slow request status %d", resp.StatusCode)
			}
		}
		reqErr <- err
	}()
	<-inFlight
	sig <- syscall.SIGTERM

	start := time.Now()
	if err := <-done; err != nil {
		t.Fatalf("ServeUntilSignal = %v, want nil (exit 0)", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("drain took %v, beyond the deadline", d)
	}
	if err := <-reqErr; err != nil {
		t.Fatalf("in-flight request not drained: %v", err)
	}
	if completed.Load() != 1 {
		t.Fatal("in-flight handler did not run to completion")
	}
	if srv.Ready() {
		t.Fatal("readiness not flipped off during drain")
	}
	// The listener is closed: new connections must fail.
	if _, err := net.DialTimeout("tcp", ln.Addr().String(), 200*time.Millisecond); err == nil {
		t.Fatal("listener still accepting after drain")
	}
}

// TestServeUntilSignalListenerError: a listener failure (port stolen,
// fd exhaustion) surfaces as an error instead of hanging.
func TestServeUntilSignalListenerError(t *testing.T) {
	srv := serve.NewServer(nil, nil)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln.Close() // Serve on a closed listener fails immediately
	httpServer := &http.Server{Handler: http.NotFoundHandler()}
	sig := make(chan os.Signal)
	if err := resilience.ServeUntilSignal(httpServer, ln, sig, time.Second, &srv.Readiness, io.Discard); err == nil {
		t.Fatal("expected an error from the dead listener")
	}
}

func TestWriteTimeoutSizing(t *testing.T) {
	if got := writeTimeout(0, 0); got != 30*time.Second {
		t.Fatalf("floor = %v", got)
	}
	if got := writeTimeout(time.Minute, time.Second); got != 2*time.Minute+6*time.Second {
		t.Fatalf("budget = %v", got)
	}
}
