package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call (spans inside the program are a later issue). Parent is the
// index of the causing span in the same trace, -1 for a root; spans of one
// request share Req.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps spans in memory. Each goroutine owns one; they are merged
// after the goroutines have stopped.
type recorder struct {
	t0    time.Time
	spans []span
}

func newRecorder(t0 time.Time) *recorder {
	return &recorder{t0: t0, spans: make([]span, 0, 1<<14)}
}

func (r *recorder) begin(name string, parent, req int) int {
	r.spans = append(r.spans, span{Name: name, Parent: parent, Req: req, Start: int64(time.Since(r.t0))})
	return len(r.spans) - 1
}

func (r *recorder) end(id int) { r.spans[id].End = int64(time.Since(r.t0)) }

// timed records fn as a span and returns its id.
func (r *recorder) timed(name string, parent, req int, fn func()) int {
	id := r.begin(name, parent, req)
	fn()
	r.end(id)
	return id
}

// merge concatenates traces, rebasing parent indexes.
func merge(recs ...*recorder) []span {
	var out []span
	for _, r := range recs {
		if r == nil {
			continue
		}
		base := len(out)
		for _, s := range r.spans {
			if s.Parent >= 0 {
				s.Parent += base
			}
			out = append(out, s)
		}
	}
	return out
}

// layerTime is a layer's total and self time over a trace.
type layerTime struct {
	count      int
	total, own int64 // ns
}

// selfTimes sums, per span name, the spans' durations and their self
// times: a span's duration minus its children's. The replay measures each
// layer with its own call, so children nest by Parent, not by timestamps,
// and a child that ran slower alone than inside its parent can push a self
// time below zero; it is reported as measured.
func selfTimes(spans []span) map[string]layerTime {
	children := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] += s.dur()
		}
	}
	out := make(map[string]layerTime)
	for i, s := range spans {
		lt := out[s.Name]
		lt.count++
		lt.total += s.dur()
		lt.own += s.dur() - children[i]
		out[s.Name] = lt
	}
	return out
}

// writeTrace writes the spans to dir/trace-<workload>.json.
func writeTrace(dir, workload string, spans []span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, "trace-"+workload+".json"))
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(spans); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}
