package placer

import (
	"math"
	"reflect"
	"sync"
	"testing"

	"xplace/internal/kernel"
)

// trajectory runs GP for up to maxIter iterations on a fresh engine with
// the given worker count, collecting the per-iteration snapshots.
func trajectory(t *testing.T, workers, maxIter int) []Snapshot {
	t.Helper()
	d := clusteredDesign(t, 600, 42)
	opts := Defaults()
	opts.GridSize = 32
	opts.TargetDensity = 0.9
	opts.Seed = 5
	opts.Sched.MaxIter = maxIter
	var snaps []Snapshot
	opts.Progress = func(s Snapshot) { snaps = append(snaps, s) }
	e := kernel.New(kernel.Options{Workers: workers})
	defer e.Close()
	p, err := New(d, e, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if _, err := p.Run(); err != nil {
		t.Fatal(err)
	}
	return snaps
}

// TestRunToRunDeterminism: the same seed and a FIXED worker count must
// reproduce the HPWL/overflow trajectory bit-for-bit — fixed workers mean
// fixed chunk boundaries, hence a fixed floating-point summation order in
// every ParallelReduce. This is the reproducibility contract the serve
// runtime's pooled engines rely on.
func TestRunToRunDeterminism(t *testing.T) {
	const iters = 50
	a := trajectory(t, 4, iters)
	b := trajectory(t, 4, iters)
	if len(a) != iters || len(b) != iters {
		t.Fatalf("trajectories have %d and %d iterations, want %d each", len(a), len(b), iters)
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.HPWL != y.HPWL || x.Overflow != y.Overflow || x.WA != y.WA ||
			x.Gamma != y.Gamma || x.Lambda != y.Lambda || x.Omega != y.Omega {
			t.Fatalf("iteration %d diverged between identical runs:\n  run A: %+v\n  run B: %+v", i, x, y)
		}
	}
}

// TestConcurrentPlacersShareOneEngine runs 4 concurrent Place jobs against
// ONE shared kernel.Engine (run it under -race: each placer's deferred
// record, the arena and the launch accounting must all be safe to share). Each
// job must produce the same result it gets when running alone, and all
// arena-backed scratch must be returned once the placers are closed.
func TestConcurrentPlacersShareOneEngine(t *testing.T) {
	d := clusteredDesign(t, 300, 9)
	opts := Defaults()
	opts.GridSize = 32
	opts.TargetDensity = 0.9
	opts.Sched.MaxIter = 120

	e := kernel.New(kernel.Options{Workers: 4})
	defer e.Close()

	// Reference: the same job running alone on an identical engine.
	ref := func() *Result {
		solo := kernel.New(kernel.Options{Workers: 4})
		defer solo.Close()
		p, err := New(d, solo, opts)
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		r, err := p.Run()
		if err != nil {
			t.Fatal(err)
		}
		return r
	}()

	const jobs = 4
	results := make([]*Result, jobs)
	errs := make([]error, jobs)
	var wg sync.WaitGroup
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p, err := New(d, e, opts)
			if err != nil {
				errs[i] = err
				return
			}
			defer p.Close()
			results[i], errs[i] = p.Run()
		}(i)
	}
	wg.Wait()

	for i := 0; i < jobs; i++ {
		if errs[i] != nil {
			t.Fatalf("job %d: %v", i, errs[i])
		}
		if results[i].HPWL != ref.HPWL || results[i].Iterations != ref.Iterations {
			t.Errorf("job %d: HPWL %v in %d iters, solo %v in %d — sharing an engine must not change results",
				i, results[i].HPWL, results[i].Iterations, ref.HPWL, ref.Iterations)
		}
	}
	if inUse := e.ArenaStats().InUse; inUse != 0 {
		t.Errorf("shared engine arena in-use = %d bytes after all placers closed, want 0", inUse)
	}
}

// TestPlacersShareCallerDesign runs two placers concurrently on one
// caller's design, each on its own engine (run it under -race: the
// placers share the design's net and pin tables and must only read
// them). Each must place bit for bit as a placer running alone, and the
// caller's design must come out unchanged.
func TestPlacersShareCallerDesign(t *testing.T) {
	d := clusteredDesign(t, 300, 9)
	want := d.Clone()
	if err := want.Finish(); err != nil {
		t.Fatal(err)
	}
	opts := Defaults()
	opts.GridSize = 32
	opts.TargetDensity = 0.9
	const iters = 25
	run := func() (*Result, error) {
		e := kernel.New(kernel.Options{Workers: 2})
		defer e.Close()
		p, err := New(d, e, opts)
		if err != nil {
			return nil, err
		}
		defer p.Close()
		return p.RunIterations(iters)
	}
	ref, err := run()
	if err != nil {
		t.Fatal(err)
	}
	if ref.Iterations != iters || len(ref.X) != d.NumCells() {
		t.Fatalf("alone: %d iterations and %d cells, want %d and %d", ref.Iterations, len(ref.X), iters, d.NumCells())
	}

	var results [2]*Result
	var errs [2]error
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = run()
		}(i)
	}
	wg.Wait()

	bits := math.Float64bits
	for i, r := range results {
		if errs[i] != nil {
			t.Fatalf("placer %d: %v", i, errs[i])
		}
		if r.Iterations != ref.Iterations || bits(r.HPWL) != bits(ref.HPWL) {
			t.Fatalf("placer %d: HPWL %v in %d iters, alone %v in %d", i, r.HPWL, r.Iterations, ref.HPWL, ref.Iterations)
		}
		for c := range ref.X {
			if bits(r.X[c]) != bits(ref.X[c]) || bits(r.Y[c]) != bits(ref.Y[c]) {
				t.Fatalf("placer %d: cell %d at (%v, %v), alone (%v, %v)", i, c, r.X[c], r.Y[c], ref.X[c], ref.Y[c])
			}
		}
	}
	if !reflect.DeepEqual(d, want) {
		t.Error("placing changed the caller's design")
	}
}
