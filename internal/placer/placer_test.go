package placer

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"xplace/internal/geom"
	"xplace/internal/kernel"
	"xplace/internal/netlist"
)

// clusteredDesign builds a seeded design with locality: cells in a
// sqrt(n) x sqrt(n) logical grid, nets mostly connecting neighbours —
// a miniature standard-cell circuit.
func clusteredDesign(tb testing.TB, n int, seed int64) *netlist.Design {
	tb.Helper()
	rng := rand.New(rand.NewSource(seed))
	// Size the region for ~55% utilization, the regime of real designs.
	side := math.Sqrt(float64(n) * 0.9 * 0.9 / 0.55)
	d := netlist.NewDesign("test", geom.Rect{Hx: side, Hy: side})
	cols := int(math.Ceil(math.Sqrt(float64(n))))
	for i := 0; i < n; i++ {
		d.AddCell("c", 0.9, 0.9, rng.Float64()*side, rng.Float64()*side, netlist.Movable)
	}
	// Neighbour nets in a logical grid + a few random long nets.
	for i := 0; i < n; i++ {
		if i+1 < n && (i+1)%cols != 0 {
			d.AddNet("h")
			d.AddPin(i, 0, 0)
			d.AddPin(i+1, 0, 0)
		}
		if i+cols < n {
			d.AddNet("v")
			d.AddPin(i, 0, 0)
			d.AddPin(i+cols, 0, 0)
		}
	}
	for i := 0; i < n/10; i++ {
		d.AddNet("r")
		deg := 3 + rng.Intn(3)
		for j := 0; j < deg; j++ {
			d.AddPin(rng.Intn(n), 0, 0)
		}
	}
	if err := d.Finish(); err != nil {
		tb.Fatal(err)
	}
	return d
}

func eng() *kernel.Engine { return kernel.New(kernel.Options{Workers: 4}) }

func TestXplaceConverges(t *testing.T) {
	d := clusteredDesign(t, 400, 1)
	opts := Defaults()
	opts.GridSize = 32
	opts.TargetDensity = 0.9
	opts.Sched.MaxIter = 600
	p, err := New(d, eng(), opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Overflow > 0.10 {
		t.Errorf("overflow = %v after %d iters, want <= 0.10", res.Overflow, res.Iterations)
	}
	if res.Iterations >= 600 {
		t.Errorf("hit MaxIter without converging (overflow %v)", res.Overflow)
	}
	if len(res.X) != d.NumCells() {
		t.Errorf("result has %d cells, want %d (fillers stripped)", len(res.X), d.NumCells())
	}
	// Every movable cell inside the region.
	for c, k := range d.CellKind {
		if k != netlist.Movable {
			continue
		}
		if res.X[c] < d.Region.Lx || res.X[c] > d.Region.Hx ||
			res.Y[c] < d.Region.Ly || res.Y[c] > d.Region.Hy {
			t.Fatalf("cell %d at (%v,%v) outside region", c, res.X[c], res.Y[c])
		}
	}
	if res.HPWL <= 0 || math.IsNaN(res.HPWL) {
		t.Errorf("HPWL = %v", res.HPWL)
	}
	t.Logf("xplace: %d iters, HPWL %.1f, overflow %.3f", res.Iterations, res.HPWL, res.Overflow)
}

func TestBaselineConvergesAndQualityComparable(t *testing.T) {
	d := clusteredDesign(t, 400, 1)

	optsX := Defaults()
	optsX.GridSize = 32
	optsX.TargetDensity = 0.9
	optsX.Sched.MaxIter = 600
	pX, err := New(d, eng(), optsX)
	if err != nil {
		t.Fatal(err)
	}
	resX, err := pX.Run()
	if err != nil {
		t.Fatal(err)
	}

	optsB := BaselineDefaults()
	optsB.GridSize = 32
	optsB.TargetDensity = 0.9
	optsB.Sched.MaxIter = 600
	pB, err := New(d, eng(), optsB)
	if err != nil {
		t.Fatal(err)
	}
	resB, err := pB.Run()
	if err != nil {
		t.Fatal(err)
	}

	if resB.Overflow > 0.10 {
		t.Errorf("baseline overflow = %v", resB.Overflow)
	}
	ratio := resX.HPWL / resB.HPWL
	if ratio > 1.10 || ratio < 0.80 {
		t.Errorf("HPWL ratio xplace/baseline = %v (x=%v b=%v), want comparable", ratio, resX.HPWL, resB.HPWL)
	}
	t.Logf("xplace HPWL %.1f (%d iters) vs baseline %.1f (%d iters), ratio %.4f",
		resX.HPWL, resX.Iterations, resB.HPWL, resB.Iterations, ratio)
}

func TestXplaceFewerLaunchesPerIterThanBaseline(t *testing.T) {
	d := clusteredDesign(t, 300, 2)
	iters := 30

	optsX := Defaults()
	optsX.GridSize = 32
	pX, err := New(d, eng(), optsX)
	if err != nil {
		t.Fatal(err)
	}
	resX, err := pX.RunIterations(iters)
	if err != nil {
		t.Fatal(err)
	}

	optsB := BaselineDefaults()
	optsB.GridSize = 32
	pB, err := New(d, eng(), optsB)
	if err != nil {
		t.Fatal(err)
	}
	resB, err := pB.RunIterations(iters)
	if err != nil {
		t.Fatal(err)
	}

	lx := float64(resX.Stats.Launches) / float64(iters)
	lb := float64(resB.Stats.Launches) / float64(iters)
	if lx >= lb {
		t.Errorf("launches/iter: xplace %.1f should be below baseline %.1f", lx, lb)
	}
	t.Logf("launches/iter: xplace %.1f vs baseline %.1f", lx, lb)
}

func TestResultDeterministicForSeed(t *testing.T) {
	d := clusteredDesign(t, 200, 3)
	run := func() *Result {
		opts := Defaults()
		opts.GridSize = 32
		opts.Seed = 42
		opts.Sched.MaxIter = 50
		opts.Sched.MinIter = 50
		p, err := New(d, eng(), opts)
		if err != nil {
			t.Fatal(err)
		}
		res, err := p.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.HPWL != b.HPWL {
		t.Errorf("same seed, different HPWL: %v vs %v", a.HPWL, b.HPWL)
	}
	for i := range a.X {
		if a.X[i] != b.X[i] || a.Y[i] != b.Y[i] {
			t.Fatalf("same seed, different position at cell %d", i)
		}
	}
}

func TestFixedCellsNeverMove(t *testing.T) {
	d := netlist.NewDesign("fix", geom.Rect{Hx: 50, Hy: 50})
	for i := 0; i < 100; i++ {
		d.AddCell("m", 0.8, 0.8, 25, 25, netlist.Movable)
	}
	mac := d.AddCell("macro", 10, 10, 15, 15, netlist.Fixed)
	d.AddNet("n")
	d.AddPin(0, 0, 0)
	d.AddPin(mac, 0, 0)
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
	opts := Defaults()
	opts.GridSize = 32
	opts.Sched.MaxIter = 60
	opts.Sched.MinIter = 60
	p, err := New(d, eng(), opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.X[mac] != 15 || res.Y[mac] != 15 {
		t.Errorf("fixed macro moved to (%v, %v)", res.X[mac], res.Y[mac])
	}
}

func TestOperatorSkippingReducesDensityKernels(t *testing.T) {
	d := clusteredDesign(t, 300, 4)
	iters := 60

	run := func(skip bool) int64 {
		opts := Defaults()
		opts.GridSize = 32
		opts.OperatorSkipping = skip
		e := kernel.New(kernel.Options{Workers: 4})
		p, err := New(d, e, opts)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.RunIterations(iters); err != nil {
			t.Fatal(err)
		}
		return e.Stats().PerOp["density.scatter"].Launches
	}
	withSkip := run(true)
	without := run(false)
	if withSkip == 0 || without == 0 {
		t.Fatalf("density.scatter launches: skip=%d, no-skip=%d; the op this counts did not run", withSkip, without)
	}
	if withSkip >= without {
		t.Errorf("density scatter launches with skipping %d should be below %d", withSkip, without)
	}
	t.Logf("density.scatter launches: skip=%d, no-skip=%d over %d iters", withSkip, without, iters)
}

func TestStageAwareReducesParamUpdates(t *testing.T) {
	// Indirect check through the scheduler: run GP and count distinct
	// lambda values; with stage awareness the intermediate stage updates
	// less often, so for identical iteration counts it must not exceed
	// the non-stage-aware count.
	d := clusteredDesign(t, 300, 5)
	run := func(aware bool) int {
		opts := Defaults()
		opts.GridSize = 32
		opts.Sched.StageAware = aware
		opts.Sched.MaxIter = 150
		opts.Sched.MinIter = 150
		p, err := New(d, eng(), opts)
		if err != nil {
			t.Fatal(err)
		}
		res, err := p.Run()
		if err != nil {
			t.Fatal(err)
		}
		distinct := 0
		prev := -1.0
		for _, rec := range res.Recorder.History() {
			if rec.Lambda != prev {
				distinct++
				prev = rec.Lambda
			}
		}
		return distinct
	}
	aware := run(true)
	plain := run(false)
	if aware > plain {
		t.Errorf("stage-aware lambda updates %d should be <= plain %d", aware, plain)
	}
	t.Logf("distinct lambda values: aware=%d plain=%d", aware, plain)
}

func TestExtraGradientHook(t *testing.T) {
	d := clusteredDesign(t, 100, 6)
	called := 0
	opts := Defaults()
	opts.GridSize = 32
	opts.ExtraGradient = func(iter int, x, y, gx, gy []float64) {
		called++
		if len(gx) != len(x) {
			t.Fatal("hook slice lengths mismatch")
		}
	}
	p, err := New(d, eng(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.RunIterations(5); err != nil {
		t.Fatal(err)
	}
	if called != 5 {
		t.Errorf("hook called %d times, want 5", called)
	}
}

// The Figure 1 modularity claim: the optimizer module is swappable.
func TestOptimizerModuleSwap(t *testing.T) {
	d := clusteredDesign(t, 200, 7)
	for _, kind := range []OptimizerKind{OptNesterov, OptAdam} {
		opts := Defaults()
		opts.GridSize = 32
		opts.Optimizer = kind
		opts.Sched.MaxIter = 400
		p, err := New(d, eng(), opts)
		if err != nil {
			t.Fatal(err)
		}
		res, err := p.Run()
		if err != nil {
			t.Fatal(err)
		}
		if res.Overflow > 0.25 {
			t.Errorf("optimizer %v: overflow %v too high", kind, res.Overflow)
		}
	}
}

func TestRRatioSmallInEarlyStage(t *testing.T) {
	// The §3.1.4 observation: r = lambda|gradD|/|gradWL| is ultra-small
	// early in placement.
	d := clusteredDesign(t, 300, 8)
	opts := Defaults()
	opts.GridSize = 32
	opts.OperatorSkipping = false // record true r every iteration
	p, err := New(d, eng(), opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.RunIterations(20)
	if err != nil {
		t.Fatal(err)
	}
	hist := res.Recorder.History()
	small := 0
	for _, rec := range hist[1:10] {
		if rec.R < 0.01 {
			small++
		}
	}
	if small < 5 {
		t.Errorf("early r should be < 0.01 most iterations, got %d/9 small", small)
	}
}

func TestNewValidatesInput(t *testing.T) {
	d := netlist.NewDesign("unfin", geom.Rect{Hx: 10, Hy: 10})
	d.AddCell("c", 1, 1, 5, 5, netlist.Movable)
	if _, err := New(d, eng(), Defaults()); err == nil {
		t.Error("unfinished design must be rejected")
	}
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
	opts := Defaults()
	opts.GridSize = 33
	if _, err := New(d, eng(), opts); err == nil {
		t.Error("non-power-of-two grid must be rejected")
	}
}

func TestAutoGridSize(t *testing.T) {
	if g := autoGridSize(100); g != 32 {
		t.Errorf("autoGridSize(100) = %d", g)
	}
	if g := autoGridSize(20000); g < 128 || g > 256 {
		t.Errorf("autoGridSize(20000) = %d", g)
	}
	if g := autoGridSize(100_000_000); g != 1024 {
		t.Errorf("clamp failed: %d", g)
	}
}

func TestSigmaBlendShape(t *testing.T) {
	if s := sigmaBlend(0); s < 0.7 || s > 1 {
		t.Errorf("sigma(0) = %v, want near 0.9", s)
	}
	if s := sigmaBlend(0.5); s > 0.01 {
		t.Errorf("sigma(0.5) = %v, want near 0", s)
	}
	prev := sigmaBlend(0)
	for w := 0.05; w <= 1; w += 0.05 {
		cur := sigmaBlend(w)
		if cur > prev+1e-12 {
			t.Errorf("sigma not decreasing at omega=%v", w)
		}
		prev = cur
	}
}

func TestModeString(t *testing.T) {
	if ModeXplace.String() != "xplace" || ModeBaseline.String() != "baseline" {
		t.Error("mode strings wrong")
	}
}

// The Table 3 ablation ordering: OR and OC reduce kernel launches, OE
// reduces density-scatter compute (it costs one extra cheap launch), OS
// drops early density evaluations; the baseline tops everything.
//
// The simulated clock is measured compute plus launches x overhead. The
// fixture's overhead (1 ms) puts the smallest launch gap of the ordering,
// baseline over none at 4 launches per iteration, at 4 ms/iter: the size
// of the whole compute of an iteration on this design under -race (3-7
// ms/iter), so wall-time noise in the compute part cannot reorder the
// clock, while a step that stops saving launches, or whose compute grows
// by more than the launches it saves, still fails it. The measured
// columns (sim, densWork) are each configuration's best of three
// interleaved runs: one stall of the machine (a GC pause, a preempted
// worker) adds tens of ms to one run, as much as OE saves in all of them.
func TestAblationOrdering(t *testing.T) {
	d := clusteredDesign(t, 400, 11)
	iters := 40
	type m struct {
		launches float64
		sim      float64
		densWork time.Duration
	}
	run := func(or, oc, oe, os bool, mode Mode) m {
		opts := Defaults()
		opts.Mode = mode
		opts.OperatorReduction = or
		opts.OperatorCombination = oc
		opts.OperatorExtraction = oe
		opts.OperatorSkipping = os
		opts.GridSize = 32
		e := kernel.New(kernel.Options{Workers: 2, LaunchOverhead: time.Millisecond})
		defer e.Close()
		p, err := New(d, e, opts)
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		res, err := p.RunIterations(iters)
		if err != nil {
			t.Fatal(err)
		}
		var dens time.Duration
		for name, op := range res.Stats.PerOp {
			if strings.HasPrefix(name, "density.scatter") || strings.HasPrefix(name, "density.cells") || strings.HasPrefix(name, "density.total") {
				dens += op.Compute
			}
		}
		return m{
			launches: float64(res.Stats.Launches) / float64(iters),
			sim:      float64(res.SimTime) / float64(iters),
			densWork: dens,
		}
	}
	configs := []struct {
		or, oc, oe, os bool
		mode           Mode
	}{
		{false, false, false, false, ModeXplace}, // none
		{true, false, false, false, ModeXplace},  // +OR
		{true, true, false, false, ModeXplace},   // +OC
		{true, true, true, false, ModeXplace},    // +OE
		{true, true, true, true, ModeXplace},     // all
		{false, false, false, false, ModeBaseline},
	}
	best := make([]m, len(configs))
	for rep := 0; rep < 3; rep++ {
		for i, c := range configs {
			r := run(c.or, c.oc, c.oe, c.os, c.mode)
			if rep > 0 {
				r.sim = min(r.sim, best[i].sim)
				r.densWork = min(r.densWork, best[i].densWork)
			}
			best[i] = r
		}
	}
	none, or, oc, oe, all, base := best[0], best[1], best[2], best[3], best[4], best[5]

	if !(base.launches > none.launches && none.launches > or.launches && or.launches > oc.launches) {
		t.Errorf("launch ordering violated: base %.1f none %.1f OR %.1f OC %.1f",
			base.launches, none.launches, or.launches, oc.launches)
	}
	if all.launches >= oe.launches {
		t.Errorf("OS should drop launches: all %.1f vs OE %.1f", all.launches, oe.launches)
	}
	for name, r := range map[string]m{"none": none, "OR": or, "OC": oc, "OE": oe, "all": all, "baseline": base} {
		if r.densWork <= 0 {
			t.Errorf("%s: no density scatter compute counted; the OE comparison checks nothing", name)
		}
	}
	if oe.densWork >= oc.densWork {
		t.Errorf("OE should cut density scatter compute: %v vs %v", oe.densWork, oc.densWork)
	}
	if !(base.sim > none.sim && none.sim > or.sim && or.sim > all.sim) {
		t.Errorf("sim-time ordering violated: base %.3gms none %.3gms OR %.3gms all %.3gms",
			base.sim/1e6, none.sim/1e6, or.sim/1e6, all.sim/1e6)
	}
	t.Logf("launches/iter: baseline %.1f, none %.1f, +OR %.1f, +OC %.1f, +OE %.1f, all %.1f",
		base.launches, none.launches, or.launches, oc.launches, oe.launches, all.launches)
	t.Logf("sim ms/iter:   baseline %.2f, none %.2f, +OR %.2f, all %.2f",
		base.sim/1e6, none.sim/1e6, or.sim/1e6, all.sim/1e6)
}

// The gradient-engine module swap of Figure 1: the LSE wirelength model
// also converges.
func TestWirelengthModelSwap(t *testing.T) {
	d := clusteredDesign(t, 300, 21)
	for _, model := range []WirelengthModel{WLWeightedAverage, WLLogSumExp} {
		opts := Defaults()
		opts.GridSize = 32
		opts.Wirelength = model
		opts.Sched.MaxIter = 500
		p, err := New(d, eng(), opts)
		if err != nil {
			t.Fatal(err)
		}
		res, err := p.Run()
		if err != nil {
			t.Fatal(err)
		}
		if res.Overflow > 0.10 {
			t.Errorf("model %d: overflow %v", model, res.Overflow)
		}
		t.Logf("model %d: HPWL %.1f in %d iters", model, res.HPWL, res.Iterations)
	}
}

func TestEngineReuseAcrossRuns(t *testing.T) {
	// Run two placers on one engine: Run resets accounting, so the second
	// result's stats must reflect only its own run.
	d := clusteredDesign(t, 200, 31)
	e := eng()
	opts := Defaults()
	opts.GridSize = 32
	opts.Sched.MaxIter = 30
	opts.Sched.MinIter = 30
	p1, err := New(d, e, opts)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := p1.Run()
	if err != nil {
		t.Fatal(err)
	}
	p2, err := New(d, e, opts)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := p2.Run()
	if err != nil {
		t.Fatal(err)
	}
	if r2.Stats.Launches > r1.Stats.Launches*2 {
		t.Errorf("second run stats not reset: %d vs %d launches",
			r2.Stats.Launches, r1.Stats.Launches)
	}
	if r1.Stats.Launches == 0 || r2.Stats.Launches == 0 {
		t.Error("missing engine stats")
	}
}

func TestResultRecorderMatchesIterations(t *testing.T) {
	d := clusteredDesign(t, 150, 32)
	opts := Defaults()
	opts.GridSize = 32
	p, err := New(d, eng(), opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.RunIterations(17)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != 17 || len(res.Recorder.History()) != 17 {
		t.Errorf("iterations %d, records %d, want 17/17", res.Iterations, len(res.Recorder.History()))
	}
}
