// Package serve exposes the annotation runtime over HTTP — the content
// syndication surface of Contextual Shortcuts ("a framework for entity
// detection and content syndication ... successfully deployed on various
// Yahoo! network properties"). Publishers POST documents and receive
// ranked annotations as JSON, or the fully annotated HTML with shortcut
// overlays.
//
// Endpoints:
//
//	POST /v1/annotate     {"text": "...", "html": false, "top": 3}
//	POST /v1/render       same body; responds with annotated HTML
//	GET  /v1/concepts?q=  concept inventory lookup (features + keywords)
//	GET  /healthz         liveness
//	GET  /readyz          readiness (503 while draining)
//	GET  /statz           processing counters, resilience counters, throughput
//
// The serving path is production-hardened by internal/resilience (see
// DESIGN.md §8 for the full contract): per-request deadlines with
// cooperative cancellation, bounded-concurrency admission control, panic
// recovery, deterministic chaos injection, and graceful degradation —
// when /v1/annotate is shed or runs out of deadline it answers with the
// cheap dictionary-prior ranking flagged "degraded": true instead of an
// error, while /v1/render (whose output cannot be meaningfully degraded)
// sheds with 429 + Retry-After.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"contextrank/internal/annotate"
	"contextrank/internal/detect"
	"contextrank/internal/framework"
	"contextrank/internal/resilience"
	"contextrank/internal/searchsim"
	"contextrank/internal/textproc"
	"contextrank/internal/wire"
)

// The request side of the contract lives in internal/wire, where the router
// reaches it without linking the runtime; these are its names as the
// server's callers know them.
const (
	MaxDocumentBytes = wire.MaxDocumentBytes
	TenantHeader     = wire.TenantHeader
	DeadlineHeader   = wire.DeadlineHeader
)

// AnnotateRequest is the JSON request body of /v1/annotate and /v1/render.
type AnnotateRequest = wire.AnnotateRequest

// defaultTop is the number of concepts returned when a request omits "top".
const defaultTop = 5

// Server wires the runtime and renderer behind an http.Handler.
type Server struct {
	Runtime  *framework.Runtime
	Renderer *annotate.Renderer

	// Timeout is the per-request deadline for the annotation pipeline
	// (0 = none). On expiry /v1/annotate degrades and /v1/render 503s.
	Timeout time.Duration
	// Gate is the admission controller (nil = unbounded admission).
	Gate *resilience.Gate
	// Quota meters the document endpoints in front of the gate (nil = no
	// quotas); Quota.Admit states the contract.
	Quota *resilience.Quota
	// TrustForwardedDeadline makes the server honor DeadlineHeader from
	// the router (shard mode, cmd/serve -shard). Off by default: an
	// internet-facing server must not let clients shrink or extend its
	// deadline policy.
	TrustForwardedDeadline bool
	// Injector enables deterministic fault injection (nil = off).
	Injector *resilience.Injector
	// Cache is the /v1/annotate response cache (nil = disabled). Hits
	// serve the exact bytes of the original cold response and bypass the
	// admission gate; see Cache for the full contract.
	Cache *Cache
	// IndexStats, when set, reports the search index's build-time size
	// accounting (raw vs Golomb-frozen bytes) and ResultCount memo-cache
	// counters in /statz. Wired to searchsim.Engine.Stats by cmd/serve.
	IndexStats func() searchsim.IndexStats
	// IndexEpoch, when set, reports the index visibility epoch
	// (searchsim.Engine.Epoch). Cached annotate responses are keyed by it,
	// so live ingest invalidates the annotation cache exactly when new
	// documents become visible — never on a pure compaction. Nil (no live
	// index) pins epoch 0: the cache behaves as before.
	IndexEpoch func() uint64

	// Readiness is the /readyz state; cmd/serve flips it off when a drain
	// begins.
	resilience.Readiness

	requests    atomic.Int64
	docBytes    atomic.Int64
	writeErrors atomic.Int64
	rz          resilience.Counters
}

// NewServer builds a server around a runtime. renderer may be nil, which
// disables /v1/render. The server starts ready.
func NewServer(rt *framework.Runtime, renderer *annotate.Renderer) *Server {
	return &Server{Runtime: rt, Renderer: renderer}
}

// Handler returns the routed handler wrapped in the resilience chain:
// Recover outermost (a panic anywhere — injected or real — becomes a 500
// and a counter), Chaos inside it (so injected panics are recovered like
// real ones), then the mux.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/annotate", s.handleAnnotate)
	mux.HandleFunc("POST /v1/render", s.handleRender)
	mux.HandleFunc("GET /v1/concepts", s.handleConcepts)
	s.Readiness.MountProbes(mux, &s.writeErrors)
	mux.HandleFunc("GET /statz", s.handleStats)

	var h http.Handler = mux
	h = resilience.Chaos(s.Injector, &s.rz, h)
	return resilience.Recover(&s.rz, h)
}

// AnnotationJSON is one annotation in the response.
type AnnotationJSON struct {
	Text      string  `json:"text"`
	Concept   string  `json:"concept"`
	Kind      string  `json:"kind"`
	Type      string  `json:"type,omitempty"`
	Subtype   string  `json:"subtype,omitempty"`
	Score     float64 `json:"score"`
	Relevance float64 `json:"relevance"`
	Start     int     `json:"start"`
	End       int     `json:"end"`
}

// AnnotateResponse is the JSON response of /v1/annotate.
type AnnotateResponse struct {
	// Text is the plain text the offsets refer to (differs from the input
	// when HTML was stripped).
	Text        string           `json:"text"`
	Annotations []AnnotationJSON `json:"annotations"`
	// Degraded marks a response produced by the cheap dictionary-prior
	// ranking because the full pipeline was shed or ran out of deadline.
	// Scores are static priors and Relevance is always 0 in this mode.
	Degraded bool `json:"degraded,omitempty"`
}

// bodyPool recycles request-body buffers. A decoded request's Text is a view
// into one, so it must be copied before anything — a cache entry, a flight —
// outlives the handler that rented the buffer.
var bodyPool = sync.Pool{New: func() any { return new([]byte) }}

// decode reads the request body into buf's storage (kept there, regrown or
// not, for the pool), parses it and validates it. On failure the error
// response has been written.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, buf *[]byte) (wire.Request, bool) {
	body, ok := wire.ReadBody(w, r, *buf)
	*buf = body
	if !ok {
		return wire.Request{}, false
	}
	req, err := wire.ParseRequest(body)
	if err != nil {
		http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
		return req, false
	}
	if len(req.Text) == 0 {
		http.Error(w, "bad request: empty text", http.StatusBadRequest)
		return req, false
	}
	return req, true
}

// top resolves a request's "top" to the runtime's topN.
func (s *Server) top(requested int) int {
	switch {
	case requested < 0:
		return 0 // all
	case requested == 0:
		return defaultTop
	default:
		return requested
	}
}

// account records one admitted document in the request counters.
func (s *Server) account(textBytes int) {
	s.requests.Add(1)
	s.docBytes.Add(int64(textBytes))
}

// requestCtx derives the per-request deadline context: the configured
// Timeout, clamped to the router's forwarded budget in shard mode. A header
// can only shorten the budget: one too large for a time.Duration is longer
// than any Timeout and is ignored before the conversion could wrap negative.
func (s *Server) requestCtx(r *http.Request) (context.Context, context.CancelFunc) {
	timeout := s.Timeout
	if s.TrustForwardedDeadline {
		if ms, err := strconv.Atoi(r.Header.Get(DeadlineHeader)); err == nil && ms > 0 && ms <= int(math.MaxInt64/time.Millisecond) {
			if fwd := time.Duration(ms) * time.Millisecond; timeout <= 0 || fwd < timeout {
				timeout = fwd
			}
		}
	}
	if timeout > 0 {
		return context.WithTimeout(r.Context(), timeout)
	}
	return r.Context(), func() {}
}

// admit asks the gate for a slot. With no gate every request is admitted.
func (s *Server) admit(ctx context.Context) (func(), error) {
	if s.Gate == nil {
		return func() {}, nil
	}
	return s.Gate.Acquire(ctx)
}

func (s *Server) handleAnnotate(w http.ResponseWriter, r *http.Request) {
	if !s.Quota.Admit(w, r.Header.Get(TenantHeader), &s.rz.QuotaDenied) {
		return
	}
	buf := bodyPool.Get().(*[]byte)
	defer bodyPool.Put(buf)
	req, ok := s.decode(w, r, buf)
	if !ok {
		return
	}
	view := req.Text
	if req.HTML {
		view = []byte(textproc.StripHTML(string(view)))
	}
	s.account(len(view))
	top := s.top(req.Top)

	if s.Cache == nil {
		ctx, cancel := s.requestCtx(r)
		defer cancel()
		body, _ := s.annotateBody(ctx, string(view), top)
		s.writeRawJSON(w, body)
		return
	}
	// A hit is served off the view: the document as a string, the deadline
	// and the fill exist only once it is a miss.
	k := cacheKey{hash: wire.Key(view, top), top: top, epoch: s.epoch()}
	if body, ok := lookup(s.Cache, k, view); ok {
		s.writeRawJSON(w, body)
		return
	}
	text := string(view)
	ctx, cancel := s.requestCtx(r)
	defer cancel()
	body, err := s.Cache.fill(ctx, k, text, top, &s.rz.PanicsRecovered, s)
	if errors.Is(err, resilience.ErrFlightPanicked) {
		// The fill panicked off this goroutine, out of Recover's reach; its
		// flight counted it. Answer as Recover answers a panic here.
		resilience.InternalError(w)
		return
	}
	if err != nil {
		// Waiter (leader or follower) whose own deadline expired before
		// the fill finished: answer degraded like any other deadline
		// exhaustion; the detached fill still completes and caches.
		s.rz.DeadlineExpired.Add(1)
		s.writeRawJSON(w, s.marshalAnnotations(text, s.degraded(text, top), true))
		return
	}
	s.writeRawJSON(w, body)
}

// annotateBody runs the gated annotate pipeline and serializes the response,
// reporting whether the bytes are cacheable (degraded responses are not).
func (s *Server) annotateBody(ctx context.Context, text string, top int) (body []byte, cacheable bool) {
	release, err := s.admit(ctx)
	if err != nil {
		// Shed: answer degraded instead of erroring. The cheap ranking
		// deliberately runs outside the gate — it is the pressure-relief
		// valve, and admitting it through the gate would defeat shedding.
		s.rz.Shed.Add(1)
		return s.marshalAnnotations(text, s.degraded(text, top), true), false
	}
	defer release()
	resilience.ChaosDelay(ctx)

	anns, err := s.Runtime.AnnotateCtx(ctx, text, top)
	if err != nil {
		// Deadline exhausted mid-pipeline: fall back to the cheap ranking
		// (still holding the slot; the fallback is fast and bounded).
		s.rz.DeadlineExpired.Add(1)
		return s.marshalAnnotations(text, s.degraded(text, top), true), false
	}
	return s.marshalAnnotations(text, anns, false), true
}

// epoch returns the current index visibility epoch for cache keying.
func (s *Server) epoch() uint64 {
	if s.IndexEpoch != nil {
		return s.IndexEpoch()
	}
	return 0
}

// degraded runs the dictionary-prior fallback and counts it.
func (s *Server) degraded(text string, top int) []framework.Annotation {
	s.rz.Degraded.Add(1)
	return s.Runtime.AnnotateDegraded(text, top)
}

// marshalAnnotations serializes the annotation list as an AnnotateResponse
// body. The bytes match json.Encoder output (trailing newline included), so
// cached and freshly encoded responses are byte-identical.
func (s *Server) marshalAnnotations(text string, anns []framework.Annotation, degraded bool) []byte {
	resp := AnnotateResponse{Text: text, Annotations: make([]AnnotationJSON, 0, len(anns)), Degraded: degraded}
	for _, a := range anns {
		aj := AnnotationJSON{
			Text:      a.Detection.Text,
			Concept:   a.Detection.Norm,
			Kind:      a.Detection.Kind.String(),
			Score:     a.Score,
			Relevance: a.Relevance,
			Start:     a.Detection.Start,
			End:       a.Detection.End,
		}
		if a.Detection.Kind == detect.KindPattern {
			aj.Type = a.Detection.PatternType
		} else if a.Detection.Entry != nil {
			aj.Type = a.Detection.Entry.Type.String()
			aj.Subtype = a.Detection.Entry.Subtype
		}
		resp.Annotations = append(resp.Annotations, aj)
	}
	body, err := json.Marshal(resp)
	if err != nil {
		// AnnotateResponse contains only marshalable fields; unreachable.
		panic("serve: marshal annotate response: " + err.Error())
	}
	return append(body, '\n')
}

// writeRawJSON writes a pre-serialized JSON body.
func (s *Server) writeRawJSON(w http.ResponseWriter, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	if _, err := w.Write(body); err != nil {
		s.writeErrors.Add(1)
	}
}

func (s *Server) handleRender(w http.ResponseWriter, r *http.Request) {
	if s.Renderer == nil {
		http.Error(w, "rendering not configured", http.StatusNotImplemented)
		return
	}
	if !s.Quota.Admit(w, r.Header.Get(TenantHeader), &s.rz.QuotaDenied) {
		return
	}
	buf := bodyPool.Get().(*[]byte)
	defer bodyPool.Put(buf)
	req, ok := s.decode(w, r, buf)
	if !ok {
		return
	}
	source := string(req.Text)
	text := source
	var stripped *textproc.StripResult
	if req.HTML {
		// One strip, with an offset map: the plain text is what is
		// accounted, admitted and annotated, and the map splices the
		// shortcut spans back into the publisher's markup.
		stripped = textproc.StripHTMLMapped(source)
		text = stripped.Text
	}
	s.account(len(text))
	top := s.top(req.Top)
	ctx, cancel := s.requestCtx(r)
	defer cancel()

	release, err := s.admit(ctx)
	if err != nil {
		// Rendered HTML has no meaningful degraded form: shed with 429
		// and a backoff hint.
		s.rz.Shed.Add(1)
		w.Header().Set("Retry-After", resilience.RetryAfterHint)
		http.Error(w, "overloaded, retry later", http.StatusTooManyRequests)
		return
	}
	defer release()
	resilience.ChaosDelay(ctx)

	anns, err := s.Runtime.AnnotateCtx(ctx, text, top)
	if err != nil {
		s.renderDeadline(w)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	if req.HTML {
		s.writeBody(w, s.Renderer.RenderSource(source, stripped, anns))
		return
	}
	s.writeBody(w, s.Renderer.Render(text, anns))
}

// renderDeadline reports a render request that ran out of its deadline.
func (s *Server) renderDeadline(w http.ResponseWriter) {
	s.rz.DeadlineExpired.Add(1)
	w.Header().Set("Retry-After", resilience.RetryAfterHint)
	http.Error(w, "deadline exceeded", http.StatusServiceUnavailable)
}

// ConceptInfo is the /v1/concepts response.
type ConceptInfo struct {
	Concept   string   `json:"concept"`
	Known     bool     `json:"known"`
	Keywords  []string `json:"keywords,omitempty"`
	PackBytes int      `json:"pack_bytes"`
}

func (s *Server) handleConcepts(w http.ResponseWriter, r *http.Request) {
	q := textproc.Normalize(r.URL.Query().Get("q"))
	if q == "" {
		http.Error(w, "missing q parameter", http.StatusBadRequest)
		return
	}
	info := ConceptInfo{Concept: q}
	if _, ok := s.Runtime.Interest.Fields(q); ok {
		info.Known = true
		info.PackBytes = s.Runtime.Packs.BytesFor(q)
		for i, e := range s.Runtime.Packs.Keywords(q) {
			if i == 10 {
				break
			}
			info.Keywords = append(info.Keywords, e.Term)
		}
	}
	s.writeJSON(w, info)
}

// Stats is the /statz response.
type Stats struct {
	Requests      int64   `json:"requests"`
	DocumentBytes int64   `json:"document_bytes"`
	WriteErrors   int64   `json:"write_errors"`
	StemMBps      float64 `json:"stem_mbps"`
	RankMBps      float64 `json:"rank_mbps"`

	// Admission-control gauges (zero when no gate is configured).
	InFlight     int `json:"in_flight"`
	QueueDepth   int `json:"queue_depth"`
	GateCapacity int `json:"gate_capacity"`

	// QuotaTenants is the number of tenant buckets currently tracked
	// (zero when quotas are disabled; refusals are counted in
	// resilience.quota_denied).
	QuotaTenants int `json:"quota_tenants,omitempty"`

	Resilience resilience.Snapshot `json:"resilience"`

	// Cache reports the annotation-cache counters (absent when disabled).
	Cache *CacheStats `json:"cache,omitempty"`

	// Index reports the search index's size accounting and the ResultCount
	// memo-cache counters (absent when the server has no index wired).
	Index *searchsim.IndexStats `json:"index,omitempty"`
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	stem, rank := s.Runtime.Throughput()
	st := Stats{
		Requests:      s.requests.Load(),
		DocumentBytes: s.docBytes.Load(),
		WriteErrors:   s.writeErrors.Load(),
		StemMBps:      stem,
		RankMBps:      rank,
		QuotaTenants:  s.Quota.Tenants(),
		Resilience:    s.rz.Snapshot(),
	}
	if s.Gate != nil {
		st.InFlight = s.Gate.InFlight()
		st.QueueDepth = s.Gate.QueueDepth()
		st.GateCapacity = s.Gate.Capacity()
	}
	if s.Cache != nil {
		cs := s.Cache.Stats()
		st.Cache = &cs
	}
	if s.IndexStats != nil {
		is := s.IndexStats()
		st.Index = &is
	}
	s.writeJSON(w, st)
}

// writeBody writes a pre-rendered body and accounts failures: a client
// that disconnects mid-write would otherwise look like a success in
// /statz while receiving a truncated document.
func (s *Server) writeBody(w http.ResponseWriter, body string) {
	if _, err := io.WriteString(w, body); err != nil {
		s.writeErrors.Add(1)
	}
}

func (s *Server) writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// Encode errors after the header is sent usually mean the client
		// went away; count them rather than pretend the write succeeded.
		s.writeErrors.Add(1)
	}
}
