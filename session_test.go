package xplace

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"xplace/internal/benchgen"
	"xplace/internal/obs"
	"xplace/internal/placer"
)

func sessionTestDesign(t *testing.T, cells int, seed int64) *Design {
	t.Helper()
	spec := Catalog2005()[0]
	scale := float64(cells) / float64(spec.Cells)
	return benchgen.Generate(spec, scale, seed)
}

// sessionTestOpts pins the GP loop to exactly iters iterations (MinIter
// blocks early convergence, MaxIter caps it) on a small grid.
func sessionTestOpts(iters int) PlacementOptions {
	opts := DefaultPlacement()
	opts.GridSize = 32
	opts.TargetDensity = 0.9
	opts.Sched.MinIter = iters
	opts.Sched.MaxIter = iters
	return opts
}

// TestSessionOwnsDefaultEngine: a session with no WithEngine lazily builds
// an engine and Close tears it down — launching on it afterwards panics,
// proving the worker pool is really gone.
func TestSessionOwnsDefaultEngine(t *testing.T) {
	s := NewSession(WithEngineOptions(1, 0))
	eng := s.Engine()
	if eng == nil {
		t.Fatal("no lazy engine")
	}
	if got := s.Engine(); got != eng {
		t.Fatal("Engine() not stable across calls")
	}
	res, err := s.Place(context.Background(), sessionTestDesign(t, 120, 1), sessionTestOpts(5))
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != 5 {
		t.Fatalf("Iterations = %d, want 5", res.Iterations)
	}
	if eng.Closed() {
		t.Fatal("engine closed while session still open")
	}
	s.Close()
	s.Close() // idempotent
	if !eng.Closed() {
		t.Error("Session.Close did not close the engine it created")
	}
}

// TestSessionLeavesSuppliedEngineOpen: WithEngine hands the session a
// caller-owned engine; Session.Close must not touch it.
func TestSessionLeavesSuppliedEngineOpen(t *testing.T) {
	eng := NewEngine(1, 0)
	defer eng.Close()

	s := NewSession(WithEngine(eng))
	if s.Engine() != eng {
		t.Fatal("session did not adopt the supplied engine")
	}
	if _, err := s.Place(context.Background(), sessionTestDesign(t, 120, 2), sessionTestOpts(5)); err != nil {
		t.Fatal(err)
	}
	s.Close()

	if eng.Closed() {
		t.Fatal("Session.Close closed a caller-supplied engine")
	}
	// Still usable: the caller owns it.
	done := make([]float64, 4)
	eng.Launch("still_open", len(done), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			done[i] = 2
		}
	})
	eng.Sync()
	if done[0] != 2 {
		t.Error("supplied engine dead after Session.Close")
	}
}

// TestSessionWithBackend: WithBackend threads the compute backend into
// every run — the float32 backend's conversion kernels show up in the run's
// launch accounting, the reference backend's do not — a per-run Backend
// wins over the session's, and WithBackendName resolves registry names and
// rejects unknown ones.
func TestSessionWithBackend(t *testing.T) {
	d := sessionTestDesign(t, 150, 8)
	converts := func(s *Session, opts PlacementOptions) bool {
		t.Helper()
		res, err := s.Place(context.Background(), d, opts)
		if err != nil {
			t.Fatal(err)
		}
		if res.Iterations != 10 {
			t.Fatalf("Iterations = %d, want 10", res.Iterations)
		}
		_, ok := res.Stats.PerOp["poisson.cvt_load"]
		return ok
	}

	s := NewSession(WithEngineOptions(1, 0), WithBackend(Float32Backend()))
	defer s.Close()
	if !converts(s, sessionTestOpts(10)) {
		t.Error("session float32 backend not applied to the run")
	}
	ref := sessionTestOpts(10)
	ref.Backend = Float64Backend()
	if converts(s, ref) {
		t.Error("per-run float64 backend lost to the session's float32")
	}

	if _, err := WithBackendName("float16"); err == nil {
		t.Error("WithBackendName accepted an unknown backend")
	}
	opt, err := WithBackendName("float32")
	if err != nil {
		t.Fatal(err)
	}
	s2 := NewSession(WithEngineOptions(1, 0), opt)
	defer s2.Close()
	if !converts(s2, sessionTestOpts(10)) {
		t.Error("WithBackendName(\"float32\") not applied to the run")
	}
}

// TestSessionCloseTwiceAfterEngineClose: the double-release chain — Close a
// Session whose engine is already gone, twice, after a completed run. No
// panic, no double-free; a caller-supplied engine stays the caller's to
// close first.
func TestSessionCloseTwiceAfterEngineClose(t *testing.T) {
	// Session-owned engine: user grabs the engine handle and closes it
	// before the session (the documented-wrong-but-survivable order).
	s := NewSession(WithEngineOptions(1, 0))
	if _, err := s.Place(context.Background(), sessionTestDesign(t, 120, 9), sessionTestOpts(4)); err != nil {
		t.Fatal(err)
	}
	eng := s.Engine()
	eng.Close()
	eng.Close() // engine Close is itself idempotent
	s.Close()   // must tolerate the already-closed engine
	s.Close()   // and stay idempotent

	// Caller-supplied engine closed before the session.
	eng2 := NewEngine(1, 0)
	s2 := NewSession(WithEngine(eng2))
	if _, err := s2.Place(context.Background(), sessionTestDesign(t, 120, 10), sessionTestOpts(4)); err != nil {
		t.Fatal(err)
	}
	eng2.Close()
	s2.Close()
	s2.Close()
}

// TestSessionObservabilityWiring: the session's tracer and the run's
// Metrics/Progress options thread through a Session.Place run — kernels and
// operator groups land in the tracer, the paper-optimization series land in
// the registry, and the progress hook sees 1-based consecutive iterations.
func TestSessionObservabilityWiring(t *testing.T) {
	tr := NewTracer()
	reg := obs.NewRegistry()
	var iters []int
	s := NewSession(WithEngineOptions(1, 0), WithTracer(tr))
	defer s.Close()

	opts := sessionTestOpts(20)
	opts.Metrics = reg
	opts.Progress = func(sn Snapshot) { iters = append(iters, sn.Iter) }
	res, err := s.Place(context.Background(), sessionTestDesign(t, 150, 3), opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(iters) != 20 || iters[0] != 1 || iters[len(iters)-1] != res.Iterations {
		t.Errorf("progress iters = %v (len %d), want 1..%d", iters, len(iters), res.Iterations)
	}
	if counts := tr.KernelLaunchCounts(); len(counts) == 0 {
		t.Error("tracer saw no kernel launches")
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	scrape := buf.String()
	for _, want := range []string{
		"xplace_gp_iterations_total 20",
		"xplace_oc_fused_launches_saved_total",
		"xplace_stage_omega",
		"xplace_iteration_seconds_count 20",
	} {
		if !strings.Contains(scrape, want) {
			t.Errorf("scrape missing %q", want)
		}
	}

	// Tracer is detached after the run: launches outside Place must not
	// grow the trace.
	n := tr.Len()
	eng := s.Engine()
	sink := make([]float64, 8)
	eng.Launch("untraced", len(sink), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			sink[i]++
		}
	})
	eng.Sync()
	if tr.Len() != n {
		t.Error("engine kept tracing after Session.Place returned")
	}
}

// TestSessionTraceLaunchSum is the trace-completeness acceptance check: in
// a 50-iteration traced run, the per-operator kernel-launch counts in the
// trace sum exactly to the engine's own Launches counter.
func TestSessionTraceLaunchSum(t *testing.T) {
	d := sessionTestDesign(t, 200, 4)
	eng := NewEngine(2, 100*time.Microsecond)
	defer eng.Close()

	p, err := placer.New(d, eng, sessionTestOpts(50))
	if err != nil {
		t.Fatal(err)
	}
	// Attach after placer.New: RunContext begins with an engine Reset that
	// zeroes Stats, so the traced window must match the counted window.
	tr := NewTracer()
	eng.SetTracer(tr)
	res, err := p.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	eng.SetTracer(nil)
	stats := eng.Stats() // before p.Close(): Close flushes deferred syncs
	p.Close()

	if res.Iterations != 50 {
		t.Fatalf("Iterations = %d, want 50", res.Iterations)
	}
	var sum int64
	for _, n := range tr.KernelLaunchCounts() {
		sum += n
	}
	if sum != stats.Launches {
		t.Errorf("trace kernel launches sum = %d, engine Launches = %d", sum, stats.Launches)
	}
	if stats.Launches == 0 {
		t.Error("no launches recorded")
	}
}

// TestSessionFlowStageSpans: Session.Flow emits one flow-category span per
// executed stage, and the Chrome export stays valid JSON.
func TestSessionFlowStageSpans(t *testing.T) {
	tr := NewTracer()
	s := NewSession(WithEngineOptions(1, 0), WithTracer(tr))
	defer s.Close()

	fopts := FlowOptions{Placement: sessionTestOpts(10)}
	res, err := s.Flow(context.Background(), sessionTestDesign(t, 150, 5), fopts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Violations != 0 {
		t.Errorf("flow left %d violations", res.Violations)
	}

	stages := map[string]bool{}
	for _, ev := range tr.Events() {
		if ev.Cat == "flow" {
			stages[ev.Name] = true
		}
	}
	for _, want := range []string{"flow.gp", "flow.legalize", "flow.detail"} {
		if !stages[want] {
			t.Errorf("missing flow stage span %q (got %v)", want, stages)
		}
	}
	if stages["flow.route"] {
		t.Error("unexpected flow.route span without Route options")
	}

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid Chrome trace: %v", err)
	}
}

// TestPlaceContextPartialResultOnCancel: Session.Place keeps the
// partial-result contract — a cancelled run returns ctx.Err() plus the
// placement it got to, with the last snapshot agreeing with Iterations.
func TestPlaceContextPartialResultOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var last int
	opts := sessionTestOpts(100000)
	opts.Progress = func(sn Snapshot) {
		last = sn.Iter
		if sn.Iter >= 5 {
			cancel()
		}
	}
	s := NewSession(WithEngineOptions(1, 0))
	defer s.Close()
	res, err := s.Place(ctx, sessionTestDesign(t, 400, 7), opts)
	if err == nil || !strings.Contains(err.Error(), context.Canceled.Error()) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil {
		t.Fatal("no partial result on cancellation")
	}
	if res.Iterations != last {
		t.Errorf("Result.Iterations = %d, last snapshot = %d", res.Iterations, last)
	}
}
