package placer

import (
	"errors"
	"testing"

	"xplace/internal/geom"
	"xplace/internal/kernel"
	"xplace/internal/netlist"
)

// lbubOpts is the pinned LB/UB configuration of the strategy tests.
func lbubOpts(maxSteps int) Options {
	opts := Defaults()
	opts.Strategy = StrategyLBUB
	opts.GridSize = 32
	opts.TargetDensity = 0.9
	opts.Seed = 5
	opts.Sched.MaxIter = maxSteps
	return opts
}

// TestLBUBConverges: the alternation closes its LB/UB gap below the
// preset tolerance on the clustered fixture, the deliverable is the
// rough-legalized UB solution (bounded capacity overflow), and every cell
// lands inside the region.
func TestLBUBConverges(t *testing.T) {
	d := clusteredDesign(t, 400, 1)
	var snaps []Snapshot
	opts := lbubOpts(200)
	opts.Progress = func(s Snapshot) { snaps = append(snaps, s) }
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
	if res.Iterations >= 200 {
		t.Errorf("hit MaxSteps without closing the gap (gap %v)", p.lbub.gap)
	}
	if p.lbub.gap > p.lbub.prm.GapTolerance {
		t.Errorf("stopped with gap %v > tolerance %v", p.lbub.gap, p.lbub.prm.GapTolerance)
	}
	if res.Overflow > 0.25 {
		t.Errorf("UB capacity overflow = %v, want <= 0.25", res.Overflow)
	}
	if res.Stats.Launches == 0 {
		t.Error("LB solves launched no kernels")
	}
	for c := range res.X {
		if r, x, y := d.Region, res.X[c], res.Y[c]; x < r.Lx || x >= r.Hx || y < r.Ly || y >= r.Hy {
			t.Fatalf("cell %d at (%v, %v) outside the region", c, res.X[c], res.Y[c])
		}
	}
	for i, s := range snaps {
		if s.Stage != "lbub" {
			t.Fatalf("snapshot %d stage %q, want \"lbub\"", i, s.Stage)
		}
		if s.WA > s.HPWL {
			t.Fatalf("snapshot %d: LB %v above UB %v", i, s.WA, s.HPWL)
		}
	}
	last := snaps[len(snaps)-1]
	if last.Omega != p.lbub.gap {
		t.Errorf("last snapshot gap %v != engine gap %v", last.Omega, p.lbub.gap)
	}
}

// lbubTrajectory mirrors the Nesterov determinism helper: the per-round
// snapshot series of a fixed-seed LB/UB run on a fresh engine.
func lbubTrajectory(t *testing.T, workers, maxSteps int) []Snapshot {
	t.Helper()
	d := clusteredDesign(t, 600, 42)
	opts := lbubOpts(maxSteps)
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

// TestLBUBRunToRunDeterminism: same seed, same worker count — the LB/UB
// trajectory (both bounds, gap, penalty, overflow) must reproduce
// bit-for-bit, exactly like the Nesterov contract. The CG dot products
// run through the engine's fixed chunk boundaries and the UB assignment
// is a strict total order, so there is no legitimate source of drift.
func TestLBUBRunToRunDeterminism(t *testing.T) {
	a := lbubTrajectory(t, 4, 40)
	b := lbubTrajectory(t, 4, 40)
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("trajectories have %d and %d rounds", len(a), len(b))
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.HPWL != y.HPWL || x.WA != y.WA || x.Overflow != y.Overflow ||
			x.Lambda != y.Lambda || x.Omega != y.Omega {
			t.Fatalf("round %d diverged between identical runs:\n  run A: %+v\n  run B: %+v", i, x, y)
		}
	}
}

// TestLBUBNotResumable: a checkpoint cannot be restored into the LB/UB
// strategy — New fails with the typed error instead of silently starting
// from scratch, and Checkpoint reports nil for a running LB/UB placer.
func TestLBUBNotResumable(t *testing.T) {
	d := clusteredDesign(t, 50, 3)
	e := eng()
	defer e.Close()

	opts := lbubOpts(10)
	opts.Resume = &Checkpoint{Cells: d.NumCells()}
	if _, err := New(d, e, opts); !errors.Is(err, ErrStrategyNotResumable) {
		t.Fatalf("New with Resume = %v, want ErrStrategyNotResumable", err)
	}

	opts.Resume = nil
	p, err := New(d, e, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if cp := p.Checkpoint(); cp != nil {
		t.Fatalf("Checkpoint() = %+v, want nil for LB/UB", cp)
	}
}

// divergentDesign is the fuzz-derived pathological input (also a seed in
// the bookshelf corpus): pin offsets of ±1e40 parse fine and keep every
// kernel finite, but the first wirelength evaluation explodes past any
// physical HPWL — the gradient flow cannot recover.
func divergentDesign(tb testing.TB) *netlist.Design {
	tb.Helper()
	d := netlist.NewDesign("fuzz-diverge", geom.Rect{Hx: 100, Hy: 100})
	a := d.AddCell("a", 2, 2, 10, 10, netlist.Movable)
	b := d.AddCell("b", 2, 2, 90, 90, netlist.Movable)
	d.AddNet("n0")
	d.AddPin(a, 1e40, 1e40)
	d.AddPin(b, -1e40, -1e40)
	if err := d.Finish(); err != nil {
		tb.Fatal(err)
	}
	return d
}

// TestNesterovDivergesOnPathologicalInput: the gradient flow flags the
// exploding run with the typed ErrDiverged on its first iteration instead
// of grinding to MaxIter on garbage numbers.
func TestNesterovDivergesOnPathologicalInput(t *testing.T) {
	d := divergentDesign(t)
	e := eng()
	defer e.Close()
	opts := Defaults()
	opts.Sched.MaxIter = 50
	p, err := New(d, e, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	res, err := p.Run()
	if !errors.Is(err, ErrDiverged) {
		t.Fatalf("Run = %v, want ErrDiverged", err)
	}
	if res == nil || res.Iterations == 0 {
		t.Fatal("divergence must surface a partial result")
	}
}

// TestLBUBSurvivesPathologicalInput: the same input completes under the
// LB/UB strategy with finite in-region positions — the property the
// serve-level fallback relies on.
func TestLBUBSurvivesPathologicalInput(t *testing.T) {
	d := divergentDesign(t)
	e := eng()
	defer e.Close()
	p, err := New(d, e, lbubOpts(50))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	res, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	for c := range res.X {
		if r, x, y := d.Region, res.X[c], res.Y[c]; x < r.Lx || x >= r.Hx || y < r.Ly || y >= r.Hy {
			t.Fatalf("cell %d at (%v, %v) outside the region", c, res.X[c], res.Y[c])
		}
	}
}
