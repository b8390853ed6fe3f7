package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

// --------------------------------------------------------------- tracer

func TestTracerNilSafe(t *testing.T) {
	var tr *Tracer
	// Every recording method must be a no-op, not a panic.
	tr.Kernel("k", time.Now(), time.Millisecond, 0, 0)
	tr.Span("s", CatGroup, time.Now(), time.Millisecond, 0, 0, 3)
	tr.Counter("c", time.Now(), 1, 4.2)
	if tr.Len() != 0 || tr.Events() != nil {
		t.Fatal("nil tracer recorded something")
	}
	if n := len(tr.KernelLaunchCounts()); n != 0 {
		t.Fatalf("nil tracer launch counts = %d entries", n)
	}
}

func TestTracerRecordsAndCounts(t *testing.T) {
	tr := NewTracer()
	base := time.Now()
	for i := 0; i < 3; i++ {
		tr.Kernel("wl.fused", base.Add(time.Duration(i)*time.Millisecond), 100*time.Microsecond,
			time.Duration(i)*time.Millisecond, 106*time.Microsecond)
	}
	tr.Kernel("density.cells", base, 50*time.Microsecond, 0, 56*time.Microsecond)
	tr.Span("op.wirelength", CatGroup, base, time.Millisecond, 0, time.Millisecond, 0)
	tr.Counter("overflow", base, 0, 0.9)

	counts := tr.KernelLaunchCounts()
	if counts["wl.fused"] != 3 || counts["density.cells"] != 1 {
		t.Fatalf("launch counts = %v", counts)
	}
	var total int64
	for _, c := range counts {
		total += c
	}
	if total != 4 {
		t.Fatalf("total launches = %d, want 4", total)
	}
	if tr.Len() != 6 {
		t.Fatalf("events = %d, want 6", tr.Len())
	}
}

func TestTracerConcurrentRecording(t *testing.T) {
	tr := NewTracer()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				tr.Kernel("k", time.Now(), time.Microsecond, 0, 0)
			}
		}()
	}
	wg.Wait()
	if got := tr.KernelLaunchCounts()["k"]; got != 800 {
		t.Fatalf("concurrent launches recorded = %d, want 800", got)
	}
}

func TestChromeTraceExport(t *testing.T) {
	tr := NewTracer()
	base := time.Now()
	tr.Kernel("wl.fused", base.Add(time.Millisecond), 200*time.Microsecond, time.Millisecond, 206*time.Microsecond)
	tr.Span("op.density", CatGroup, base, 2*time.Millisecond, 0, 2*time.Millisecond, 7)
	tr.Span("legalize", CatFlow, base, time.Millisecond, 0, 0, -1)
	tr.Counter("lambda", base, 7, 1e-4)

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	var kernelsWall, kernelsSim, groups, flows, counters int
	for _, ev := range doc.TraceEvents {
		switch ev["ph"] {
		case "X":
			pid := int(ev["pid"].(float64))
			switch {
			case ev["cat"] == CatKernel && pid == 1:
				kernelsWall++
			case ev["cat"] == CatKernel && pid == 2:
				kernelsSim++
			case ev["cat"] == CatGroup:
				groups++
				if args := ev["args"].(map[string]any); args["iter"].(float64) != 7 {
					t.Errorf("group span iter = %v", args["iter"])
				}
			case ev["cat"] == CatFlow:
				flows++
			}
		case "C":
			counters++
		}
	}
	// Every kernel appears on BOTH clocks (wall pid 1, simulated pid 2).
	if kernelsWall != 1 || kernelsSim != 1 || groups != 1 || flows != 1 || counters != 1 {
		t.Fatalf("event census: wall=%d sim=%d groups=%d flows=%d counters=%d",
			kernelsWall, kernelsSim, groups, flows, counters)
	}
}

// -------------------------------------------------------------- registry

func TestRegistryNilSafe(t *testing.T) {
	var r *Registry
	c := r.Counter("c", "")
	g := r.Gauge("g", "")
	h := r.Histogram("h", "", nil)
	r.GaugeFunc("f", "", func() float64 { return 1 })
	c.Inc()
	g.Set(3)
	h.Observe(0.5)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 {
		t.Fatal("nil-registry instruments retained state")
	}
	if err := r.WritePrometheus(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
}

func TestRegistryIdempotentRegistration(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("launches_total", "kernel launches")
	b := r.Counter("launches_total", "kernel launches")
	if a != b {
		t.Fatal("re-registration returned a different counter")
	}
	a.Add(2)
	if b.Value() != 2 {
		t.Fatal("shared counter not shared")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("kind mismatch did not panic")
		}
	}()
	r.Gauge("launches_total", "")
}

func TestPrometheusExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("jobs_total", "jobs processed").Add(5)
	r.Gauge("overflow", "current overflow").Set(0.25)
	r.GaugeFunc(`engine_launches{engine="0"}`, "per-engine launches", func() float64 { return 42 })
	r.GaugeFunc(`engine_launches{engine="1"}`, "per-engine launches", func() float64 { return 7 })
	h := r.Histogram("iter_seconds", "iteration wall time", []float64{0.01, 0.1, 1})
	h.Observe(0.005)
	h.Observe(0.05)
	h.Observe(5)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE jobs_total counter",
		"jobs_total 5",
		"overflow 0.25",
		"# TYPE engine_launches gauge",
		`engine_launches{engine="0"} 42`,
		`engine_launches{engine="1"} 7`,
		`iter_seconds_bucket{le="0.01"} 1`,
		`iter_seconds_bucket{le="0.1"} 2`,
		`iter_seconds_bucket{le="1"} 2`,
		`iter_seconds_bucket{le="+Inf"} 3`,
		"iter_seconds_sum 5.055",
		"iter_seconds_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// The family header must appear once even with two labeled series.
	if strings.Count(out, "# TYPE engine_launches gauge") != 1 {
		t.Errorf("duplicated family header:\n%s", out)
	}
}

func TestHistogramLabeled(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram(`job_seconds{queue="gp"}`, "", []float64{1})
	h.Observe(0.5)
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`job_seconds_bucket{queue="gp",le="1"} 1`,
		`job_seconds_sum{queue="gp"} 0.5`,
		`job_seconds_count{queue="gp"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("labeled histogram missing %q:\n%s", want, out)
		}
	}
}
