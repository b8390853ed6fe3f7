// Package obs is the operator-level observability layer: a span-based
// tracer that records every kernel launch and operator group on both the
// wall clock and the engine's simulated clock (exportable as Chrome
// `trace_event` JSON) and a typed metrics registry (counters, gauges,
// histograms with Prometheus text exposition).
//
// Everything in this package is nil-safe by contract: every method on a
// nil *Tracer, *Registry, *Counter, *Gauge or *Histogram is a no-op (or
// returns a zero value), so instrumented hot paths pay only a nil check
// when observability is disabled. The placer's AllocsPerRun regression
// tests enforce that the disabled path — and the metrics-enabled path,
// which is all atomics — stays at zero heap allocations per GP iteration.
package obs

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// Span categories used by the engine and placer instrumentation. Kernel
// events come from the execution engine (one per launch); group events
// are the placer's operator groups (§3.1: wirelength, density, poisson,
// gradient assembly, optimizer step, scheduler/record).
const (
	CatKernel = "kernel"
	CatGroup  = "group"
	CatFlow   = "flow"
)

// EventKind discriminates trace events.
type EventKind uint8

// Event kinds.
const (
	// KindSpan is a complete duration event (Chrome "ph":"X").
	KindSpan EventKind = iota
	// KindCounter is a named scalar sample (Chrome "ph":"C").
	KindCounter
)

// Event is one recorded trace entry. Wall-clock offsets (TS, Dur) are
// relative to the tracer's epoch; Sim/SimDur are positions on the
// engine's simulated clock (compute + launches x launch-overhead), the
// quantity the paper's kernel-launch analysis is about.
type Event struct {
	Name   string
	Cat    string
	Kind   EventKind
	TS     time.Duration
	Dur    time.Duration
	Sim    time.Duration
	SimDur time.Duration
	Iter   int     // GP iteration (groups and counters; -1 when n/a)
	Value  float64 // counter sample value
}

// Tracer records spans. The zero value is NOT ready: use NewTracer, which
// pins the epoch. A nil *Tracer is the disabled tracer: every method is a
// no-op, so instrumentation sites need no guards beyond passing it along.
//
// Recording appends to an in-memory event list under a mutex; it is safe
// for concurrent use (the engine's worker accounting and the placement
// loop both record). Memory grows with the trace — tracing is a
// diagnostic mode, not a production default.
type Tracer struct {
	mu     sync.Mutex
	epoch  time.Time
	events []Event
}

// NewTracer returns an enabled tracer with its epoch pinned to now.
func NewTracer() *Tracer {
	return &Tracer{epoch: time.Now(), events: make([]Event, 0, 4096)}
}

// Kernel records one kernel launch: wall start/duration plus the launch's
// position and extent on the simulated clock.
func (t *Tracer) Kernel(name string, start time.Time, dur, sim, simDur time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.events = append(t.events, Event{
		Name: name, Cat: CatKernel, Kind: KindSpan,
		TS: start.Sub(t.epoch), Dur: dur, Sim: sim, SimDur: simDur, Iter: -1,
	})
	t.mu.Unlock()
}

// Span records a completed operator-group (or flow-stage) span.
func (t *Tracer) Span(name, cat string, start time.Time, dur, sim, simDur time.Duration, iter int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.events = append(t.events, Event{
		Name: name, Cat: cat, Kind: KindSpan,
		TS: start.Sub(t.epoch), Dur: dur, Sim: sim, SimDur: simDur, Iter: iter,
	})
	t.mu.Unlock()
}

// Counter records a scalar sample (per-iteration lambda, gamma, omega,
// overflow), rendered by Chrome tracing as a counter track.
func (t *Tracer) Counter(name string, at time.Time, iter int, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.events = append(t.events, Event{
		Name: name, Cat: CatCounterTrack, Kind: KindCounter,
		TS: at.Sub(t.epoch), Iter: iter, Value: v,
	})
	t.mu.Unlock()
}

// CatCounterTrack is the category of counter samples.
const CatCounterTrack = "metric"

// Len returns the number of recorded events.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.events)
}

// Events returns a copy of the recorded events in record order.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Event, len(t.events))
	copy(out, t.events)
	return out
}

// KernelLaunchCounts aggregates the recorded kernel events per operator
// name. Summed over all names this equals the engine's Stats().Launches
// for the traced window (the tentpole's acceptance invariant).
func (t *Tracer) KernelLaunchCounts() map[string]int64 {
	counts := make(map[string]int64)
	if t == nil {
		return counts
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range t.events {
		if t.events[i].Cat == CatKernel && t.events[i].Kind == KindSpan {
			counts[t.events[i].Name]++
		}
	}
	return counts
}

// Chrome trace_event pids/tids. Two "processes" render the two clocks:
// pid 1 is the wall-clock timeline (tid 1 kernels, tid 2 operator groups,
// tid 3 flow stages), pid 2 replays the kernels on the simulated clock.
const (
	pidWall = 1
	pidSim  = 2

	tidKernels = 1
	tidGroups  = 2
	tidFlow    = 3
)

// chromeEvent is the trace_event wire form.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// WriteChromeTrace serializes the trace in the Chrome trace_event JSON
// object format ({"traceEvents": [...]}); load the file at
// chrome://tracing or https://ui.perfetto.dev. The wall-clock timeline is
// pid 1 (kernels, operator groups, flow stages on separate threads) and
// the simulated clock replays the kernels on pid 2, so launch-overhead
// effects (§3.1.3) are visible as the gap between the two timelines.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	events := t.Events()
	out := make([]chromeEvent, 0, 2*len(events)+8)
	meta := func(pid int, name string) {
		out = append(out, chromeEvent{
			Name: "process_name", Ph: "M", Pid: pid, Tid: 0,
			Args: map[string]any{"name": name},
		})
	}
	tmeta := func(pid, tid int, name string) {
		out = append(out, chromeEvent{
			Name: "thread_name", Ph: "M", Pid: pid, Tid: tid,
			Args: map[string]any{"name": name},
		})
	}
	meta(pidWall, "wall clock")
	meta(pidSim, "simulated clock (compute + launch overhead)")
	tmeta(pidWall, tidKernels, "kernel launches")
	tmeta(pidWall, tidGroups, "operator groups")
	tmeta(pidWall, tidFlow, "flow stages")
	tmeta(pidSim, tidKernels, "kernel launches (sim)")

	for _, ev := range events {
		switch ev.Kind {
		case KindSpan:
			tid := tidKernels
			switch ev.Cat {
			case CatGroup:
				tid = tidGroups
			case CatFlow:
				tid = tidFlow
			}
			args := map[string]any{"sim_us": us(ev.Sim), "sim_dur_us": us(ev.SimDur)}
			if ev.Iter >= 0 {
				args["iter"] = ev.Iter
			}
			out = append(out, chromeEvent{
				Name: ev.Name, Cat: ev.Cat, Ph: "X",
				TS: us(ev.TS), Dur: us(ev.Dur), Pid: pidWall, Tid: tid, Args: args,
			})
			if ev.Cat == CatKernel {
				out = append(out, chromeEvent{
					Name: ev.Name, Cat: ev.Cat, Ph: "X",
					TS: us(ev.Sim), Dur: us(ev.SimDur), Pid: pidSim, Tid: tidKernels,
				})
			}
		case KindCounter:
			out = append(out, chromeEvent{
				Name: ev.Name, Cat: ev.Cat, Ph: "C",
				TS: us(ev.TS), Pid: pidWall, Tid: 0,
				Args: map[string]any{"value": ev.Value},
			})
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(map[string]any{
		"traceEvents":     out,
		"displayTimeUnit": "ms",
	})
}
