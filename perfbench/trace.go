package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans of one run
// share the run id; Parent is the index of the enclosing span (-1 for a
// round's root).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Run    string `json:"run"`
}

// tracer keeps spans in memory until the run ends. Per-call spans inside
// the simulation (one per RPC or pool call) are far too many to keep one by
// one, so they are kept as duration samples per name instead.
type tracer struct {
	run   string
	t0    time.Time
	spans []span
	calls map[string][]float64 // name -> host microseconds per call
}

func newTracer(run string) *tracer {
	return &tracer{run: run, t0: time.Now(), calls: make(map[string][]float64)}
}

// begin opens a span and returns its index; a nil tracer records nothing.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.t0)), Parent: parent, Run: t.run})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].End = int64(time.Since(t.t0))
}

// call records one per-call host duration; a nil tracer records nothing.
func (t *tracer) call(name string, d time.Duration) {
	if t == nil {
		return
	}
	t.calls[name] = append(t.calls[name], float64(d)/1e3)
}

// selfTimes sums, per span name, each span's duration minus the part of it
// its direct children cover (overlapping children are merged first).
func (t *tracer) selfTimes() map[string]time.Duration {
	children := make(map[int][]span)
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]time.Duration)
	for i, s := range t.spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		var covered, curS, curE int64
		curS, curE = -1, -1
		for _, k := range kids {
			if k.Start > curE {
				if curE > curS {
					covered += curE - curS
				}
				curS, curE = k.Start, k.End
			} else if k.End > curE {
				curE = k.End
			}
		}
		if curE > curS {
			covered += curE - curS
		}
		out[s.Name] += time.Duration(s.End - s.Start - covered)
	}
	return out
}

// write stores the spans and per-name self times as JSON at path.
func (t *tracer) write(path string) error {
	self := make(map[string]float64)
	for name, d := range t.selfTimes() {
		self[name] = d.Seconds() * 1e3
	}
	callCounts := make(map[string]int)
	for name, v := range t.calls {
		callCounts[name] = len(v)
	}
	doc := struct {
		Run        string             `json:"run"`
		Spans      []span             `json:"spans"`
		SelfMS     map[string]float64 `json:"self_ms"`
		CallCounts map[string]int     `json:"call_counts"`
	}{t.run, t.spans, self, callCounts}
	b, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return fmt.Errorf("encode spans: %w", err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
