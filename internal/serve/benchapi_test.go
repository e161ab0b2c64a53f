package serve

import (
	"bytes"
	"context"
	"testing"
)

// TestCacheDoMatchesServedPath holds Cache.Do, bench/'s cache entry point,
// to the handler's cache path bit for bit: a response the handler cached is
// a Do hit, and a body Do filled through the server's own filler is a
// handler hit.
func TestCacheDoMatchesServedPath(t *testing.T) {
	srv := testServer(t)
	srv.Cache = NewCache(64)
	h := srv.Handler()
	req := AnnotateRequest{Text: "the alphaword met the betaword near ctx", Top: 2}
	cold := postJSON(t, h, "/v1/annotate", req).Body.Bytes()
	noFill := func(context.Context) ([]byte, bool) {
		t.Fatal("a response the handler cached missed in Do")
		return nil, false
	}
	if body, err := srv.Cache.Do(context.Background(), req.Text, req.Top, 0, noFill); err != nil || !bytes.Equal(body, cold) {
		t.Fatalf("Do = %q, %v; the handler served %q", body, err, cold)
	}

	srv.Cache = NewCache(64)
	h = srv.Handler()
	fill := func(ctx context.Context) ([]byte, bool) { return srv.annotateBody(ctx, req.Text, req.Top) }
	if body, err := srv.Cache.Do(context.Background(), req.Text, req.Top, 0, fill); err != nil || !bytes.Equal(body, cold) {
		t.Fatalf("Do filled %q, %v; the handler served %q", body, err, cold)
	}
	if got := postJSON(t, h, "/v1/annotate", req).Body.Bytes(); !bytes.Equal(got, cold) {
		t.Fatalf("handler after Do = %q, want %q", got, cold)
	}
	if st := srv.Cache.Stats(); st.Misses != 1 || st.Hits != 1 {
		t.Fatalf("counters %+v, want the Do miss and the handler hit", st)
	}
}
