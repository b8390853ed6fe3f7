package placer

import (
	"math"
	"strings"
	"testing"

	"xplace/internal/backend"
	"xplace/internal/kernel"
)

// TestIterationLaunchLedger pins which operators a 60-iteration Xplace run
// launches and how often: the fused wirelength kernel runs once per
// iteration; the pin-to-cell sum and the gradient norms run once, for the
// initial lambda, and are then part of the fused assembly, as is the
// steplength; every density evaluation is one scatter, one map reduce, one
// Poisson launch and one gather, and its scatter shares one launch with
// that iteration's wirelength kernel, so the engine counts one launch fewer
// per evaluation than the ops do; and the launches those replaced are gone.
// With OC off the pin-to-cell sum still runs every iteration and the
// steplength is one launch per step after the first, so the ablation keeps
// its meaning. The backend is pinned: the float32 solve keeps its passes.
func TestIterationLaunchLedger(t *testing.T) {
	const iters = 60
	d := clusteredDesign(t, 400, 1)
	run := func(oc bool) kernel.Stats {
		e := kernel.New(kernel.Options{Workers: 2})
		defer e.Close()
		opts := Defaults()
		opts.GridSize = 32
		opts.TargetDensity = 0.9
		opts.OperatorCombination = oc
		opts.Backend = backend.Float64()
		p, err := New(d, e, opts)
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		res, err := p.RunIterations(iters)
		if err != nil {
			t.Fatal(err)
		}
		return res.Stats
	}

	stats := run(true)
	per := stats.PerOp
	for op, want := range map[string]int64{
		"wl.fused_wa_grad_hpwl": iters,
		"wl.pin_to_cell":        1,
		"placer.grad_norms":     1,
		"placer.fused_grad":     iters,
		"optim.dist":            0,
	} {
		if got := per[op].Launches; got != want {
			t.Errorf("%s: %d launches, want %d", op, got, want)
		}
	}
	evals := per["density.gather_field"].Launches
	if evals == 0 || evals == iters {
		t.Errorf("%d density evaluations in %d iterations: the case tests no skipping", evals, iters)
	}
	for _, op := range []string{"density.scatter", "density.maps", "poisson.solve"} {
		if got := per[op].Launches; got != evals {
			t.Errorf("%s: %d launches, want one per density evaluation (%d)", op, got, evals)
		}
	}
	var opLaunches int64
	for _, st := range per {
		opLaunches += st.Launches
	}
	if stats.Launches != opLaunches-evals {
		t.Errorf("engine counted %d launches, ops %d: want one paired launch per density evaluation (%d fewer)",
			stats.Launches, opLaunches, evals)
	}
	for op := range per {
		if strings.HasSuffix(op, ".merge") || strings.HasPrefix(op, "spectral2.") ||
			op == "density.add_maps" || op == "density.ovfl" ||
			op == "density.cells" || op == "density.fillers" {
			t.Errorf("%s ran %d times; the fused iteration replaces it", op, per[op].Launches)
		}
	}

	off := run(false).PerOp
	if got := off["wl.pin_to_cell"].Launches; got != iters {
		t.Errorf("OC off: wl.pin_to_cell %d launches, want one per iteration (%d)", got, iters)
	}
	if got := off["optim.dist"].Launches; got != iters-1 {
		t.Errorf("OC off: optim.dist %d launches, want one per step after the first (%d)", got, iters-1)
	}
}

// TestFusedAssemblyBitIdenticalToUnfused: the cell-major OC assembly sums
// each chunk's gradient norms into its own partials and folds them in chunk
// order, so on a design the engine splits into several chunks the run with
// OC on has the records and positions of the run with OC off (separate
// pin-to-cell, combine, precondition and norm launches) bit for bit.
func TestFusedAssemblyBitIdenticalToUnfused(t *testing.T) {
	const iters = 40
	d := clusteredDesign(t, 3000, 2)
	run := func(oc bool) *Result {
		e := kernel.New(kernel.Options{Workers: 3})
		defer e.Close()
		if c := e.Chunks(d.NumCells()); c < 2 {
			t.Fatalf("Chunks(%d) = %d: the case tests nothing", d.NumCells(), c)
		}
		opts := Defaults()
		opts.GridSize = 64
		opts.TargetDensity = 0.9
		opts.OperatorCombination = oc
		p, err := New(d, e, opts)
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		res, err := p.RunIterations(iters)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	fused, unfused := run(true), run(false)
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	hf, hu := fused.Recorder.History(), unfused.Recorder.History()
	if len(hf) != len(hu) {
		t.Fatalf("%d records, unfused %d", len(hf), len(hu))
	}
	for i := range hf {
		f, u := hf[i], hu[i]
		if !same(f.HPWL, u.HPWL) || !same(f.WA, u.WA) || !same(f.Energy, u.Energy) ||
			!same(f.Overflow, u.Overflow) || !same(f.Gamma, u.Gamma) || !same(f.Lambda, u.Lambda) ||
			!same(f.Omega, u.Omega) || !same(f.R, u.R) {
			t.Fatalf("iteration %d: fused %+v, unfused %+v", i, f, u)
		}
	}
	for c := range fused.X {
		if !same(fused.X[c], unfused.X[c]) || !same(fused.Y[c], unfused.Y[c]) {
			t.Fatalf("cell %d: fused (%v, %v), unfused (%v, %v)", c, fused.X[c], fused.Y[c], unfused.X[c], unfused.Y[c])
		}
	}
}
