package contextrank

// The detection-hot-path differential: the trie-matcher pipeline and the
// annotation cache must produce bit-identical serving responses regardless
// of the GOMAXPROCS the offline artifacts were built at. Any width
// dependence in vocabulary interning, trie compilation, or pack building —
// and any cache bug that serves stale or re-encoded bytes — shows up as a
// byte diff here.

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"contextrank/internal/annotate"
	"contextrank/internal/core"
	"contextrank/internal/newsgen"
	"contextrank/internal/ranksvm"
	"contextrank/internal/relevance"
	"contextrank/internal/serve"
)

// buildAnnotateStack assembles the full serving stack (runtime + cache +
// HTTP surface) from a system built at the current GOMAXPROCS.
func buildAnnotateStack(t *testing.T) (*serve.Server, []newsgen.Story) {
	t.Helper()
	sys := Build(SmallConfig(42))
	s := sys.Internal()
	learned := &core.LearnedMethod{UseRelevance: true, Resource: relevance.Snippets, Options: ranksvm.Options{Seed: 42}}
	if err := learned.Fit(s.Dataset([]relevance.Resource{relevance.Snippets})); err != nil {
		t.Fatal(err)
	}
	srv := serve.NewServer(s.RuntimeTables().Runtime(learned.Model()), annotate.NewRenderer(&annotate.DefaultProvider{}))
	srv.Cache = serve.NewCache(256)
	docs := newsgen.Generate(s.World, newsgen.Config{Seed: 4242, NumStories: 12, MinSentences: 8, MaxSentences: 16})
	return srv, docs
}

func postAnnotate(t *testing.T, h http.Handler, text string) []byte {
	t.Helper()
	payload, err := json.Marshal(serve.AnnotateRequest{Text: text, Top: 3})
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, "/v1/annotate", bytes.NewReader(payload))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	return rec.Body.Bytes()
}

func TestAnnotateResponsesEqualAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("builds three systems; skipped in -short")
	}
	var ref [][]byte
	var refProcs int
	for _, procs := range []int{1, 4, runtime.NumCPU()} {
		setGOMAXPROCS(t, procs)
		srv, docs := buildAnnotateStack(t)
		h := srv.Handler()
		bodies := make([][]byte, len(docs))
		for i, d := range docs {
			cold := postAnnotate(t, h, d.Text)
			hit := postAnnotate(t, h, d.Text)
			if !bytes.Equal(cold, hit) {
				t.Fatalf("GOMAXPROCS=%d story %d: cache hit differs from cold response:\ncold %s\nhit  %s", procs, d.ID, cold, hit)
			}
			bodies[i] = cold
		}
		if st := srv.Cache.Stats(); st.Hits != int64(len(docs)) {
			t.Fatalf("GOMAXPROCS=%d: expected %d cache hits, got %+v", procs, len(docs), st)
		}
		if ref == nil {
			ref, refProcs = bodies, procs
			continue
		}
		for i := range bodies {
			if !bytes.Equal(bodies[i], ref[i]) {
				t.Fatalf("story %d: GOMAXPROCS=%d response differs from GOMAXPROCS=%d:\n%s\nvs\n%s",
					docs[i].ID, procs, refProcs, bodies[i], ref[i])
			}
		}
	}
}
