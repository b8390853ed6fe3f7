package xplace

// Allocation-regression tests for the execution substrate: after warm-up,
// the steady-state GP loop must not touch the Go heap — all scratch comes
// from the engine arena and all kernel bodies are persistent closures with
// staged parameters. A regression here means a per-iteration make() or an
// escaping closure crept back into a hot path.

import (
	"testing"

	"xplace/internal/benchgen"
	"xplace/internal/field"
	"xplace/internal/geom"
	"xplace/internal/kernel"
	"xplace/internal/obs"
	"xplace/internal/placer"
)

// wantNoAllocs fails the test when a warm GP iteration touched the Go heap.
// Under the race detector the count is not asserted: there sync.Pool.Put
// drops a quarter of its objects at random, so the kernel's per-launch
// WaitGroup pool refills from the heap about once per iteration. The
// iterations still run, which is what the detector needs.
func wantNoAllocs(t *testing.T, what string, allocs float64) {
	t.Helper()
	if allocs != 0 && !raceDetector {
		t.Errorf("%s allocs = %v, want 0", what, allocs)
	}
}

// TestSteadyStateIterationAllocFree: one full Xplace GP iteration (fused
// wirelength + gradient, density solve, deferred metrics sync) performs
// zero heap allocations once warm.
func TestSteadyStateIterationAllocFree(t *testing.T) {
	spec, _ := benchgen.FindSpec("adaptec1")
	d := benchgen.Generate(spec, benchScale, 1)
	p, err := placer.New(d, benchEngine(), DefaultPlacement())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := p.RunIteration(); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := p.RunIteration(); err != nil {
			t.Fatal(err)
		}
	})
	wantNoAllocs(t, "steady-state GP iteration", allocs)
}

// TestInstrumentedIterationAllocFree: the metrics path is all-atomics, so
// even with a live registry attached (counters, stage gauges, iteration
// histogram all updating every iteration) the steady-state GP loop stays
// off the Go heap. Only an attached tracer may allocate (amortized event
// appends), which is why tracing is per-run opt-in.
func TestInstrumentedIterationAllocFree(t *testing.T) {
	spec, _ := benchgen.FindSpec("adaptec1")
	d := benchgen.Generate(spec, benchScale, 1)
	opts := DefaultPlacement()
	opts.Metrics = obs.NewRegistry()
	p, err := placer.New(d, benchEngine(), opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := p.RunIteration(); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := p.RunIteration(); err != nil {
			t.Fatal(err)
		}
	})
	wantNoAllocs(t, "metrics-instrumented GP iteration", allocs)
}

// TestPoissonSolveAllocFree: the full spectral solve — including the
// batched potential/field evaluation — stays off the Go heap once the
// plan's arena-backed scratch is warm: at 64x64 on the default engine,
// whose line passes run serially, and at 256x256 on a 2-worker engine,
// whose line passes fan out over the pool (its count is held to 0 outside
// the race detector, as wantNoAllocs says why).
func TestPoissonSolveAllocFree(t *testing.T) {
	solveAllocs := func(n int, e *kernel.Engine) float64 {
		defer e.Close()
		g := geom.NewGrid(geom.Rect{Hx: float64(n), Hy: float64(n)}, n, n)
		s := field.NewSystem(g, e)
		for i := range s.Total {
			s.Total[i] = float64(i%11) * 0.1
		}
		s.SolvePoisson(e)
		return testing.AllocsPerRun(50, func() {
			s.SolvePoisson(e)
		})
	}
	if allocs := solveAllocs(64, benchEngine()); allocs != 0 {
		t.Errorf("steady-state Poisson solve allocs = %v, want 0", allocs)
	}
	wantNoAllocs(t, "steady-state pooled 256x256 Poisson solve", solveAllocs(256, kernel.New(kernel.Options{Workers: 2})))
}
