package contextrank

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"contextrank/internal/annotate"
	"contextrank/internal/core"
	"contextrank/internal/newsgen"
	"contextrank/internal/ranksvm"
	"contextrank/internal/relevance"
	"contextrank/internal/serve"
)

// serveMissPool and serveMissCache size BenchmarkServeMiss: feed stories
// cycled in order through a cache of a quarter their number, so each
// story's entry is evicted long before it comes round again.
const (
	serveMissPool  = 1024
	serveMissCache = 256
)

// BenchmarkServeMiss is one cache miss through the /v1/annotate handler of
// a paper-scale server (PaperConfig, snippet packs, the learned model), with
// no socket: a reused request whose body is the next feed story. Every
// request runs the whole annotate path — decode, tokenize and look up,
// detect with its collision pass, score, rank, encode — on stories with the
// paper-scale detection density that BenchmarkAnnotate's small-scale
// documents lack. It reports allocs/op, B/op and the response bytes per
// request; `make bench` guards the first two.
func BenchmarkServeMiss(b *testing.B) {
	s := Build(PaperConfig(1)).Internal()
	learned := &core.LearnedMethod{UseRelevance: true, Resource: relevance.Snippets, Options: ranksvm.Options{Seed: 1}}
	if err := learned.Fit(s.Dataset([]relevance.Resource{relevance.Snippets})); err != nil {
		b.Fatal(err)
	}
	srv := serve.NewServer(s.RuntimeTables().Runtime(learned.Model()), annotate.NewRenderer(&annotate.DefaultProvider{}))
	srv.Cache = serve.NewCache(serveMissCache)
	h := srv.Handler()

	payloads := make([][]byte, 0, serveMissPool)
	feed := newsgen.NewFeed(s.World, newsgen.Config{Seed: 7}, 64)
	for len(payloads) < serveMissPool {
		for _, st := range feed.NextBatch() {
			p, err := json.Marshal(serve.AnnotateRequest{Text: st.Text, Top: 3})
			if err != nil {
				b.Fatal(err)
			}
			payloads = append(payloads, p)
		}
	}
	payloads = payloads[:serveMissPool]

	body := &reusableBody{}
	req := httptest.NewRequest(http.MethodPost, "/v1/annotate", nil)
	req.Body = body
	w := &countingWriter{h: http.Header{}}
	post := func(i int) {
		p := payloads[i%len(payloads)]
		body.Reset(p)
		req.ContentLength = int64(len(p))
		w.code = http.StatusOK
		h.ServeHTTP(w, req)
		if w.code != http.StatusOK {
			b.Fatalf("story %d answered %d", i%len(payloads), w.code)
		}
	}
	// One untimed pass, so the pooled scratch has grown to fit the stories
	// and the cache is full: the timed requests start where it left off.
	for i := range payloads {
		post(i)
	}
	w.n = 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		post(i)
	}
	b.StopTimer()
	b.ReportMetric(float64(w.n)/float64(b.N), "resp-B/op")
	if st := srv.Cache.Stats(); st.Hits != 0 {
		b.Fatalf("not a miss benchmark: %+v", st)
	}
}

// reusableBody is a request body reset to each payload in turn.
type reusableBody struct{ bytes.Reader }

func (*reusableBody) Close() error { return nil }

// countingWriter is a ResponseWriter that keeps the status and counts the
// body bytes.
type countingWriter struct {
	h    http.Header
	code int
	n    int
}

func (w *countingWriter) Header() http.Header { return w.h }
func (w *countingWriter) Write(p []byte) (int, error) {
	w.n += len(p)
	return len(p), nil
}
func (w *countingWriter) WriteHeader(code int) { w.code = code }
