package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"contextrank/internal/annotate"
	"contextrank/internal/corpus"
	"contextrank/internal/detect"
	"contextrank/internal/features"
	"contextrank/internal/framework"
	"contextrank/internal/querylog"
	"contextrank/internal/ranksvm"
	"contextrank/internal/relevance"
	"contextrank/internal/textproc"
	"contextrank/internal/units"
)

// testServer builds a tiny self-contained server: two supported concepts,
// a pattern detector, and a trained model.
func testServer(t testing.TB) *Server {
	t.Helper()
	store := relevance.NewStore(map[string]corpus.Vector{
		"alphaword": {{Term: "ctx", Weight: 5}},
		"betaword":  {{Term: "ctx", Weight: 4}},
	})
	packs := framework.BuildKeywordPacks(store)
	hot := features.Fields{FreqExact: 9, FreqPhraseContained: 10, NumberOfChars: 9, ConceptSize: 1}
	cold := features.Fields{FreqExact: 1, FreqPhraseContained: 1, NumberOfChars: 8, ConceptSize: 1}
	table := framework.BuildInterestTable([]string{"alphaword", "betaword"}, func(n string) features.Fields {
		if n == "alphaword" {
			return hot
		}
		return cold
	})
	var instances []ranksvm.Instance
	for g := 0; g < 6; g++ {
		instances = append(instances,
			ranksvm.Instance{Features: features.AppendRelevance(hot.Expand(features.AllGroups()), 1, 1), Label: 0.1, Group: g},
			ranksvm.Instance{Features: features.AppendRelevance(cold.Expand(features.AllGroups()), 0, 0), Label: 0.01, Group: g},
		)
	}
	model, err := ranksvm.Train(instances, ranksvm.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	log := querylog.FromCounts(map[string]int{"alphaword": 5000, "betaword": 4000, "ctx": 100})
	us := units.Extract(log, units.Config{})
	rt := framework.NewRuntime(detect.New(nil, us), table, packs, model)
	renderer := annotate.NewRenderer(&annotate.DefaultProvider{})
	return NewServer(rt, renderer)
}

func postJSON(t *testing.T, h http.Handler, path string, body any) *httptest.ResponseRecorder {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(data))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func TestAnnotateEndpoint(t *testing.T) {
	h := testServer(t).Handler()
	rec := postJSON(t, h, "/v1/annotate", AnnotateRequest{
		Text: "the alphaword met the betaword near ctx; email a@b.com",
		Top:  1,
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	var resp AnnotateResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	var kinds []string
	concepts := map[string]bool{}
	for _, a := range resp.Annotations {
		kinds = append(kinds, a.Kind)
		if a.Kind == "concept" {
			concepts[a.Concept] = true
		}
		if resp.Text[a.Start:a.End] != a.Text {
			t.Fatalf("offsets do not slice to text: %+v", a)
		}
	}
	if len(concepts) != 1 || !concepts["alphaword"] {
		t.Fatalf("top-1 should keep only alphaword: %v (%v)", concepts, kinds)
	}
	found := false
	for _, a := range resp.Annotations {
		if a.Kind == "pattern" && a.Type == "email" {
			found = true
		}
	}
	if !found {
		t.Fatalf("email pattern missing: %+v", resp.Annotations)
	}
}

func TestAnnotateHTMLStripping(t *testing.T) {
	h := testServer(t).Handler()
	rec := postJSON(t, h, "/v1/annotate", AnnotateRequest{
		Text: "<p>the <b>alphaword</b> story</p>",
		HTML: true,
	})
	var resp AnnotateResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(resp.Text, "<b>") {
		t.Fatalf("HTML not stripped: %q", resp.Text)
	}
	if len(resp.Annotations) == 0 {
		t.Fatal("no annotations after stripping")
	}
}

func TestAnnotateValidation(t *testing.T) {
	h := testServer(t).Handler()
	// Empty text.
	rec := postJSON(t, h, "/v1/annotate", AnnotateRequest{})
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("empty text status = %d", rec.Code)
	}
	// Malformed JSON.
	req := httptest.NewRequest(http.MethodPost, "/v1/annotate", strings.NewReader("{nope"))
	rec2 := httptest.NewRecorder()
	h.ServeHTTP(rec2, req)
	if rec2.Code != http.StatusBadRequest {
		t.Fatalf("bad JSON status = %d", rec2.Code)
	}
	// Wrong method.
	req3 := httptest.NewRequest(http.MethodGet, "/v1/annotate", nil)
	rec3 := httptest.NewRecorder()
	h.ServeHTTP(rec3, req3)
	if rec3.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET status = %d", rec3.Code)
	}
}

func TestRenderEndpoint(t *testing.T) {
	h := testServer(t).Handler()
	rec := postJSON(t, h, "/v1/render", AnnotateRequest{Text: "the alphaword appeared"})
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	body := rec.Body.String()
	if !strings.Contains(body, `data-concept="alphaword"`) {
		t.Fatalf("render output missing shortcut: %s", body)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/html") {
		t.Fatalf("content type = %q", ct)
	}
}

func TestRenderWithoutRenderer(t *testing.T) {
	s := testServer(t)
	s.Renderer = nil
	rec := postJSON(t, s.Handler(), "/v1/render", AnnotateRequest{Text: "x"})
	if rec.Code != http.StatusNotImplemented {
		t.Fatalf("status = %d", rec.Code)
	}
}

func TestConceptsEndpoint(t *testing.T) {
	h := testServer(t).Handler()
	req := httptest.NewRequest(http.MethodGet, "/v1/concepts?q=AlphaWord", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	var info ConceptInfo
	if err := json.Unmarshal(rec.Body.Bytes(), &info); err != nil {
		t.Fatal(err)
	}
	if !info.Known || info.Concept != "alphaword" {
		t.Fatalf("concept info = %+v", info)
	}
	if len(info.Keywords) == 0 || info.PackBytes == 0 {
		t.Fatalf("keywords missing: %+v", info)
	}
	// Unknown concept.
	req2 := httptest.NewRequest(http.MethodGet, "/v1/concepts?q=nonexistent", nil)
	rec2 := httptest.NewRecorder()
	h.ServeHTTP(rec2, req2)
	var info2 ConceptInfo
	if err := json.Unmarshal(rec2.Body.Bytes(), &info2); err != nil {
		t.Fatal(err)
	}
	if info2.Known {
		t.Fatal("unknown concept reported as known")
	}
	// Missing q.
	req3 := httptest.NewRequest(http.MethodGet, "/v1/concepts", nil)
	rec3 := httptest.NewRecorder()
	h.ServeHTTP(rec3, req3)
	if rec3.Code != http.StatusBadRequest {
		t.Fatalf("missing q status = %d", rec3.Code)
	}
}

func TestHealthAndStats(t *testing.T) {
	s := testServer(t)
	h := s.Handler()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz = %d", rec.Code)
	}
	postJSON(t, h, "/v1/annotate", AnnotateRequest{Text: "the alphaword appeared"})
	rec2 := httptest.NewRecorder()
	h.ServeHTTP(rec2, httptest.NewRequest(http.MethodGet, "/statz", nil))
	var stats Stats
	if err := json.Unmarshal(rec2.Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Requests == 0 || stats.DocumentBytes == 0 {
		t.Fatalf("stats = %+v", stats)
	}
}

func TestConcurrentAnnotate(t *testing.T) {
	h := testServer(t).Handler()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 25; j++ {
				rec := postJSON(t, h, "/v1/annotate", AnnotateRequest{Text: "the alphaword and betaword with ctx"})
				if rec.Code != http.StatusOK {
					t.Errorf("status %d", rec.Code)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestRequestSizeLimit(t *testing.T) {
	h := testServer(t).Handler()
	huge := strings.Repeat("x", MaxDocumentBytes+100)
	rec := postJSON(t, h, "/v1/annotate", AnnotateRequest{Text: huge})
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized request status = %d, want 413", rec.Code)
	}
}

// TestRequestSizeLimitCoversTheWholeBody: the limit is on the body, not on
// its first JSON value — padding after a small, complete request is still
// over the limit (the old streaming decode answered by how far it happened
// to read ahead).
func TestRequestSizeLimitCoversTheWholeBody(t *testing.T) {
	h := testServer(t).Handler()
	body := `{"text":"the alphaword appeared"}` + strings.Repeat(" ", MaxDocumentBytes)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/annotate", strings.NewReader(body)))
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("padded oversized request status = %d, want 413", rec.Code)
	}
}

// TestBadRequestBodies pins the 400 texts on both decode paths: the empty
// text the scanner itself accepts and the handler refuses, and the errors
// encoding/json words for the bodies the scanner declines.
func TestBadRequestBodies(t *testing.T) {
	h := testServer(t).Handler()
	for body, want := range map[string]string{
		`{"text":"","top":3}`:            "bad request: empty text\n",
		` { "top" : 3 } `:                "bad request: empty text\n",
		`{"text":null}`:                  "bad request: empty text\n",
		`{"text":"alphaword","top":1.5}`: "bad request: json: cannot unmarshal number 1.5 into Go struct field AnnotateRequest.top of type int\n",
		`{"text":"alphaword"`:            "bad request: unexpected EOF\n",
		``:                               "bad request: EOF\n",
	} {
		for _, path := range []string{"/v1/annotate", "/v1/render"} {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
			if rec.Code != http.StatusBadRequest || rec.Body.String() != want {
				t.Errorf("POST %s %q = %d %q, want 400 %q", path, body, rec.Code, rec.Body, want)
			}
		}
	}
}

func TestReadyz(t *testing.T) {
	s := testServer(t)
	h := s.Handler()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("readyz while ready = %d", rec.Code)
	}
	s.SetReady(false)
	rec2 := httptest.NewRecorder()
	h.ServeHTTP(rec2, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	if rec2.Code != http.StatusServiceUnavailable {
		t.Fatalf("readyz while draining = %d, want 503", rec2.Code)
	}
	if rec2.Header().Get("Retry-After") == "" {
		t.Fatal("draining readyz missing Retry-After")
	}
	// Liveness is unaffected by draining.
	rec3 := httptest.NewRecorder()
	h.ServeHTTP(rec3, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec3.Code != http.StatusOK {
		t.Fatalf("healthz while draining = %d", rec3.Code)
	}
}

func TestRenderEndpointOriginalHTML(t *testing.T) {
	s := testServer(t)
	h := s.Handler()
	const source = `<p>the <em>story</em> of the alphaword began</p>`
	rec := postJSON(t, h, "/v1/render", AnnotateRequest{Text: source, HTML: true})
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	// document_bytes counts the stripped text, the bytes the runtime saw.
	if got, want := s.docBytes.Load(), int64(len(textproc.StripHTML(source))); got != want {
		t.Fatalf("document_bytes = %d, want %d (the stripped body)", got, want)
	}
	body := rec.Body.String()
	// Original markup preserved, shortcut span spliced in.
	if !strings.Contains(body, "<em>story</em>") {
		t.Fatalf("original markup lost: %s", body)
	}
	if !strings.Contains(body, `data-concept="alphaword"`) {
		t.Fatalf("shortcut missing from original HTML: %s", body)
	}
}
