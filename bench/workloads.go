package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"hash"
	"hash/maphash"
	"net/http"
	"time"

	"contextrank/internal/newsgen"
	"contextrank/internal/searchsim"
	"contextrank/internal/serve"
)

// workload names one traffic mix. Why each exists is in BENCHMARK.json and
// README.md; how each is driven is here.
type workload struct {
	name string
	// render posts to /v1/render on the stand-alone server with one client
	// while a writer ingests; otherwise clients post to /v1/annotate.
	render bool
	// routed sends through the router instead of the stand-alone server.
	routed bool
	// zipf samples the pool Zipf(zipfS) after a warm-up sweep of the whole
	// pool; otherwise each client cycles its share of the pool in order.
	zipf bool
	pool func(sz sizing) int
	warm func(sz sizing) int // warm-up requests over all clients (cycling workloads)
}

var workloads = []workload{
	{name: "serve-miss", pool: func(sz sizing) int { return sz.missPool }, warm: func(sz sizing) int { return sz.warmMiss }},
	{name: "serve-hot", zipf: true, pool: func(sz sizing) int { return sz.hotPool }},
	{name: "cluster-zipf", zipf: true, routed: true, pool: func(sz sizing) int { return sz.clusterPool }},
	{name: "render-ingest", render: true, pool: func(sz sizing) int { return sz.renderPool }, warm: func(sz sizing) int { return sz.warmRender }},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// requestClients is how many goroutines send requests: the writer takes
// the second core on render-ingest.
func (w workload) requestClients() int {
	if w.render {
		return clients - 1
	}
	return clients
}

func (w workload) url(t *topology) string {
	switch {
	case w.render:
		return t.single.url + "/v1/render"
	case w.routed:
		return t.router.url + "/v1/annotate"
	default:
		return t.single.url + "/v1/annotate"
	}
}

// doc is one request document: a feed story and its pre-encoded request.
type doc struct {
	story newsgen.Story
	body  []byte
}

// takeDocs draws the next n stories from the feed.
func takeDocs(feed *newsgen.Feed, n int) ([]doc, error) {
	docs := make([]doc, 0, n)
	for len(docs) < n {
		for _, st := range feed.NextBatch() {
			if len(docs) == n {
				break
			}
			body, err := json.Marshal(serve.AnnotateRequest{Text: st.Text, Top: topN})
			if err != nil {
				return nil, err
			}
			docs = append(docs, doc{story: st, body: body})
		}
	}
	return docs, nil
}

// sample is one fully parsed response kept for the comparison with the
// runtime called directly (annotate) or with its annotations sorted by
// Start (render).
type sample struct {
	doc      int
	anns     []serve.AnnotationJSON // /v1/annotate
	concepts []string               // /v1/render: the data-concept sequence
}

// client is one closed-loop caller. All of its state is its own; clients
// are compared with each other only after they have stopped.
type client struct {
	id     int
	hc     *http.Client
	url    string
	render bool
	docs   []doc
	rec    *recorder // nil unless the phase is traced

	first   []uint64 // per doc: fingerprint of this client's first response
	seed    maphash.Seed
	buf     bytes.Buffer
	digest  hash.Hash // SHA-256 over the warm-up bodies, in issue order
	prefix  int       // responses still to be sampled unconditionally
	samples []sample
	issued  int

	// The current timed phase: its start, and per response its latency and
	// its completion time since the start, both in ns.
	phaseStart time.Time
	lat, done  []int64
	attempted  int
	failed     int
	firstFail  string
}

func newClient(id int, hc *http.Client, url string, render bool, docs []doc, seed maphash.Seed, prefix int) *client {
	return &client{
		id: id, hc: hc, url: url, render: render, docs: docs,
		first: make([]uint64, len(docs)), seed: seed,
		digest: sha256.New(), prefix: prefix,
		lat: make([]int64, 0, 1<<16),
	}
}

func (c *client) fail(format string, args ...any) {
	c.failed++
	if c.firstFail == "" {
		c.firstFail = fmt.Sprintf(format, args...)
	}
}

var degradedSuffix = []byte(`"degraded":true}` + "\n")

// roundTrip posts docs[i] and leaves the response body in c.buf.
func (c *client) roundTrip(i int) (status int, err error) {
	req, err := http.NewRequest(http.MethodPost, c.url, bytes.NewReader(c.docs[i].body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	_ = resp.Body.Close()
	return resp.StatusCode, err
}

// do sends one request for docs[i], checks the response and, when timed,
// records its latency. warm marks the count-based warm-up, whose bodies
// feed the output digest.
func (c *client) do(i int, warm bool) {
	c.attempted++
	c.issued++
	span := -1
	if c.rec != nil {
		span = c.rec.begin("client.request", -1, c.issued)
	}
	start := time.Now()
	status, err := c.roundTrip(i)
	elapsed := time.Since(start)
	if c.rec != nil {
		c.rec.end(span)
	}
	body := c.buf.Bytes()
	if err != nil {
		c.fail("doc %d: %v", i, err)
		return
	}
	if status != http.StatusOK {
		c.fail("doc %d: status %d: %.80s", i, status, body)
		return
	}
	if !warm {
		c.lat = append(c.lat, int64(elapsed))
		c.done = append(c.done, int64(start.Sub(c.phaseStart)+elapsed))
	}

	full := c.prefix > 0 || c.issued%verifyEvery == 0
	s := sample{doc: i}
	var fp uint64
	if c.render {
		// The overlays read the live index, so a render body changes while
		// the writer runs; what must not change is which concepts it links.
		s.concepts = dataConcepts(body)
		var h maphash.Hash
		h.SetSeed(c.seed)
		for _, name := range s.concepts {
			_, _ = h.WriteString(name)
			_ = h.WriteByte(0)
		}
		fp = h.Sum64()
	} else {
		if bytes.HasSuffix(body, degradedSuffix) {
			c.fail("doc %d: degraded response", i)
			return
		}
		fp = maphash.Bytes(c.seed, body)
		if full {
			var ar serve.AnnotateResponse
			if err := json.Unmarshal(body, &ar); err != nil {
				c.fail("doc %d: response does not parse: %v", i, err)
				return
			}
			if ar.Degraded || ar.Text != c.docs[i].story.Text {
				c.fail("doc %d: degraded, or not this document's text", i)
				return
			}
			s.anns = ar.Annotations
		}
	}
	fp |= 1 // 0 means "not fetched yet"
	if c.first[i] == 0 {
		c.first[i] = fp
	} else if c.first[i] != fp {
		c.fail("doc %d: repeat response differs from the first", i)
		return
	}
	if warm {
		_, _ = c.digest.Write(body)
	}
	if full {
		c.samples = append(c.samples, s)
		if c.prefix > 0 {
			c.prefix--
		}
	}
}

var conceptAttr = []byte(`data-concept="`)

// dataConcepts extracts the data-concept attribute values of a rendered
// body, in document order.
func dataConcepts(body []byte) []string {
	var out []string
	for {
		i := bytes.Index(body, conceptAttr)
		if i < 0 {
			return out
		}
		body = body[i+len(conceptAttr):]
		j := bytes.IndexByte(body, '"')
		if j < 0 {
			return out
		}
		out = append(out, string(body[:j]))
		body = body[j:]
	}
}

// cycle returns the chooser of a cycling client: its share of the pool
// (indices congruent to id modulo k), in order, forever.
func cycle(id, k, n int) func() int {
	i := id - k
	return func() int {
		i += k
		if i >= n {
			i = id
		}
		return i
	}
}

// sweep lists a Zipf client's warm-up: its share of the pool from the
// coldest rank to the hottest, so that where the pool exceeds the cache
// the LRU keeps the head.
func sweep(id, k, n int) []int {
	var out []int
	for i := n - 1; i >= 0; i-- {
		if i%k == id {
			out = append(out, i)
		}
	}
	return out
}

// ingestStory is what the writer needs of a feed story. It holds no
// pointer into the world the story was generated from, so the stories of
// the first set-up can feed the engines of the later ones.
type ingestStory struct {
	text  string
	topic int
}

func takeIngestStories(feed *newsgen.Feed, n int) []ingestStory {
	out := make([]ingestStory, 0, n)
	for len(out) < n {
		for _, st := range feed.NextBatch() {
			out = append(out, ingestStory{st.Text, st.Topic})
		}
	}
	return out[:n]
}

// writer streams stories into the live index the way cmd/ingest does
// (Add, Commit per batch), compacting inline: a background compactor
// beside an unpaced writer and a reader on two cores measures the Go
// scheduler, not the index (ISSUE 13 sizing).
type writer struct {
	e       *searchsim.Engine
	stories []ingestStory
	pos     int
	rec     *recorder

	docs, commits, compactions int
	addNs, commitNs, compactNs int64
	// The latest run: its first story and its wall time.
	runFrom           int
	started, finished time.Time
}

// batch ingests one batch, commits it and compacts until nothing is left
// to merge.
func (w *writer) batch(n int) {
	for i := 0; i < n; i++ {
		st := &w.stories[w.pos]
		w.pos = (w.pos + 1) % len(w.stories)
		w.addNs += w.timed("searchsim.add", func() { w.e.Add(st.text, st.topic) })
		w.docs++
	}
	w.commitNs += w.timed("searchsim.commit", func() { w.e.Commit() })
	w.commits++
	for {
		merged := false
		w.compactNs += w.timed("searchsim.compact", func() { merged = w.e.Compact(1) })
		if !merged {
			return
		}
		w.compactions++
	}
}

func (w *writer) timed(name string, fn func()) int64 {
	span := -1
	if w.rec != nil {
		span = w.rec.begin(name, -1, w.docs)
	}
	start := time.Now()
	fn()
	d := time.Since(start)
	if w.rec != nil {
		w.rec.end(span)
	}
	return int64(d)
}

// run ingests until stop reports true (checked between batches).
func (w *writer) run(stop func() bool) {
	w.runFrom, w.started = w.docs, time.Now()
	for !stop() {
		w.batch(ingestBatch)
	}
	w.finished = time.Now()
}

// docsPerSec is the rate of the latest run.
func (w *writer) docsPerSec() float64 {
	if d := w.finished.Sub(w.started).Seconds(); d > 0 {
		return float64(w.docs-w.runFrom) / d
	}
	return 0
}
