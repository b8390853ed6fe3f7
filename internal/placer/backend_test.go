package placer

import (
	"math"
	"testing"

	"xplace/internal/backend"
)

// runWith places the shared 400-cell fixture under opts and returns the
// result (fails the test on error).
func runWith(t *testing.T, opts Options) *Result {
	t.Helper()
	d := clusteredDesign(t, 400, 1)
	opts.GridSize = 32
	opts.TargetDensity = 0.9
	opts.Sched.MaxIter = 600
	e := eng()
	defer e.Close()
	p, err := New(d, e, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	res, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations >= 600 {
		t.Fatalf("hit MaxIter without converging (overflow %v)", res.Overflow)
	}
	return res
}

// TestFloat32BackendQuality is the placement-level tolerance golden: the
// float32 backend must converge to the same quality band as the reference
// run. Bit-identity is impossible (the trajectory diverges after enough
// iterations of rounded fields), and this 400-cell fixture is chaotic
// enough that even a 1-ulp early perturbation moves the final HPWL a
// couple of percent, so the gate is a 3%% band here; the tight 1%% gate
// lives on the structured adaptec1 fixture below.
func TestFloat32BackendQuality(t *testing.T) {
	ref := runWith(t, Defaults())
	opts := Defaults()
	opts.Backend = backend.Float32()
	got := runWith(t, opts)
	if got.Overflow > 0.10 {
		t.Errorf("float32 overflow = %v, want <= 0.10", got.Overflow)
	}
	if rel := math.Abs(got.HPWL-ref.HPWL) / ref.HPWL; rel > 0.03 {
		t.Errorf("float32 HPWL %v vs reference %v (rel %.4f), want within 3%%",
			got.HPWL, ref.HPWL, rel)
	}
	t.Logf("float32: %d iters, HPWL %.1f (ref %.1f), overflow %.3f",
		got.Iterations, got.HPWL, ref.HPWL, got.Overflow)
}

// TestExplicitFloat64MatchesDefault: pinning the reference backend
// explicitly is bit-identical to leaving Backend nil (with no env
// override) — the refactor must not perturb the default path.
func TestExplicitFloat64MatchesDefault(t *testing.T) {
	t.Setenv(backend.EnvVar, "") // neutralize any ambient override
	a := runWith(t, Defaults())
	opts := Defaults()
	opts.Backend = backend.Float64()
	b := runWith(t, opts)
	if a.HPWL != b.HPWL || a.Iterations != b.Iterations {
		t.Fatalf("explicit float64 diverged from default: HPWL %v vs %v, iters %d vs %d",
			b.HPWL, a.HPWL, b.Iterations, a.Iterations)
	}
}

// TestCloseReleasesEverything: after a float32 run, Close returns
// every arena byte the placer checked out, twice in a row, and the placer
// still runs afterwards (the re-checkout contract).
func TestCloseReleasesEverything(t *testing.T) {
	d := clusteredDesign(t, 300, 2)
	e := eng()
	defer e.Close()
	base := e.ArenaStats().InUse
	opts := Defaults()
	opts.GridSize = 32
	opts.TargetDensity = 0.9
	opts.Sched.MaxIter = 80
	opts.Backend = backend.Float32()
	p, err := New(d, e, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.RunIterations(10); err != nil {
		t.Fatal(err)
	}
	if e.ArenaStats().InUse <= base {
		t.Fatal("run should hold arena scratch")
	}
	p.Close()
	if got := e.ArenaStats().InUse; got != base {
		t.Fatalf("InUse after Close = %d, want %d", got, base)
	}
	p.Close() // idempotent
	if got := e.ArenaStats().InUse; got != base {
		t.Fatalf("InUse after second Close = %d, want %d", got, base)
	}
	if _, err := p.RunIterations(3); err != nil {
		t.Fatalf("run after Close: %v", err)
	}
	p.Close()
	if got := e.ArenaStats().InUse; got != base {
		t.Fatalf("InUse after close-run-close = %d, want %d", got, base)
	}
}
