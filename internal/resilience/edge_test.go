package resilience

import (
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"os"
	"syscall"
	"testing"
	"time"
)

// TestGracefulDrainPastDeadline: a handler that outlives the drain deadline
// makes the drain fail — the process exits 1 instead of pretending it
// drained — with the deadline as the cause, and readiness stays off.
func TestGracefulDrainPastDeadline(t *testing.T) {
	inFlight, release := make(chan struct{}), make(chan struct{})
	hs := NewHTTPServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		close(inFlight)
		<-release
		w.WriteHeader(http.StatusOK)
	}), time.Minute)
	defer hs.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var ready Readiness
	sig := make(chan os.Signal, 1)
	done := make(chan error, 1)
	go func() { done <- ServeUntilSignal(hs, ln, sig, 100*time.Millisecond, &ready, io.Discard) }()

	reqDone := make(chan struct{})
	go func() {
		defer close(reqDone)
		if resp, err := http.Get("http://" + ln.Addr().String() + "/slow"); err == nil {
			_ = resp.Body.Close()
		}
	}()
	<-inFlight
	sig <- syscall.SIGTERM

	err = <-done
	close(release)
	<-reqDone
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("ServeUntilSignal = %v, want an error wrapping context.DeadlineExceeded", err)
	}
	if ready.Ready() {
		t.Fatal("readiness not flipped off during the drain")
	}
}
