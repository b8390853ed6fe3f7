package main

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// span is one interval the harness recorded around a call into a layer.
// Parent is the index of the enclosing span (-1 for a root); Op names the
// workload repetition the span belongs to, so every span of one operation
// shares an identifier.
type span struct {
	Name   string
	Op     string
	Start  time.Time
	End    time.Time
	Parent int
}

// recorder keeps the harness's own spans in memory until the run ends. A
// nil *recorder is the disabled recorder: begin returns -1 and end does
// nothing, so the untraced path costs one nil check per call site.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens a span and returns its handle.
func (r *recorder) begin(name, op string, parent int) int {
	if r == nil {
		return -1
	}
	now := time.Now()
	r.mu.Lock()
	r.spans = append(r.spans, span{Name: name, Op: op, Start: now, Parent: parent})
	id := len(r.spans) - 1
	r.mu.Unlock()
	return id
}

// end closes the span opened by begin.
func (r *recorder) end(id int) {
	if r == nil || id < 0 {
		return
	}
	now := time.Now()
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

// durations returns the duration of every closed span with the given name.
func (r *recorder) durations(name string) []time.Duration {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []time.Duration
	for _, s := range r.spans {
		if s.Name == name && !s.End.IsZero() {
			out = append(out, s.End.Sub(s.Start))
		}
	}
	return out
}

// selfTimes sums, per span name, each span's duration minus the part of it
// its direct children cover.
func (r *recorder) selfTimes() map[string]time.Duration {
	out := map[string]time.Duration{}
	if r == nil {
		return out
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	child := make([]time.Duration, len(r.spans))
	for _, s := range r.spans {
		if s.Parent >= 0 && !s.End.IsZero() {
			child[s.Parent] += s.End.Sub(s.Start)
		}
	}
	for i, s := range r.spans {
		if !s.End.IsZero() {
			out[s.Name] += s.End.Sub(s.Start) - child[i]
		}
	}
	return out
}

// writeChromeTrace writes the spans as Chrome trace_event JSON (complete
// "X" events; load at chrome://tracing or ui.perfetto.dev). Spans of one
// operation share a tid so they nest on one track.
func (r *recorder) writeChromeTrace(w io.Writer) error {
	type event struct {
		Name string            `json:"name"`
		Ph   string            `json:"ph"`
		TS   float64           `json:"ts"`
		Dur  float64           `json:"dur"`
		PID  int               `json:"pid"`
		TID  int               `json:"tid"`
		Args map[string]string `json:"args,omitempty"`
	}
	r.mu.Lock()
	events := make([]event, 0, len(r.spans))
	tids := map[string]int{}
	for _, s := range r.spans {
		if s.End.IsZero() {
			continue
		}
		tid, ok := tids[s.Op]
		if !ok {
			tid = len(tids) + 1
			tids[s.Op] = tid
		}
		events = append(events, event{
			Name: s.Name, Ph: "X",
			TS: us(s.Start.Sub(r.epoch)), Dur: us(s.End.Sub(s.Start)),
			PID: 1, TID: tid, Args: map[string]string{"op": s.Op},
		})
	}
	r.mu.Unlock()
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": events})
}
