package placer

import (
	"strings"
	"sync"
	"testing"

	"xplace/internal/backend"
	"xplace/internal/benchgen"
	"xplace/internal/nn"
	"xplace/internal/obs"
)

// tinyFieldModel trains one small deterministic FNO per test binary:
// every test that blends uses the identical weights, so trajectories are
// comparable across tests and reruns.
var (
	tinyModelOnce sync.Once
	tinyModel     *nn.Model
)

func tinyFieldModel(tb testing.TB) *nn.Model {
	tb.Helper()
	tinyModelOnce.Do(func() {
		samples := nn.GenerateSamples(24, 32, 32, 3)
		m := nn.NewModel(nn.Config{Width: 6, Modes: 4, Layers: 2, Seed: 1})
		m.Train(samples, nn.TrainOptions{Epochs: 25, LR: 4e-3, Seed: 1})
		tinyModel = m
	})
	return tinyModel
}

// spyPredictor counts PredictField calls and records the placer
// iteration each call happened on.
type spyPredictor struct {
	inner FieldPredictor
	calls int
}

func (s *spyPredictor) PredictField(density []float64, nx, ny int, exOut, eyOut []float64) {
	s.calls++
	s.inner.PredictField(density, nx, ny, exOut, eyOut)
}

func nnTestOptions() Options {
	o := Defaults()
	o.Backend = backend.Float64()
	o.GridSize = 32
	o.TargetDensity = 0.9
	o.Sched.MaxIter = 600
	return o
}

// TestNNBlendHandoffMonotone drives the Eq. 14 handoff end to end: the
// blend weight starts high, decays to (numerically) zero as omega grows,
// and once it underflows the 1e-3 cutoff the predictor is never invoked
// again — from that point the trajectory is the pure numerical path, and
// a checkpoint taken past the cutoff resumes bit-identically whether or
// not a predictor is attached.
func TestNNBlendHandoffMonotone(t *testing.T) {
	d := clusteredDesign(t, 400, 11)
	e := eng()
	defer e.Close()
	reg := obs.NewRegistry()
	opts := nnTestOptions()
	opts.Metrics = reg
	spy := &spyPredictor{inner: &nn.Predictor{M: tinyFieldModel(t)}}
	opts.Predictor = spy
	p, err := New(d, e, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	var sigmas []float64
	cutoffIter := -1 // first iteration whose pre-iteration sigma underflowed
	callsAtCutoff := 0
	for !p.done() {
		sigma := sigmaBlend(p.schd.Omega())
		sigmas = append(sigmas, sigma)
		if cutoffIter < 0 && sigma <= 1e-3 {
			cutoffIter = p.iter
			callsAtCutoff = spy.calls
		}
		if cutoffIter >= 0 && sigma > 1e-3 {
			t.Fatalf("iter %d: sigma %v rose back above the cutoff crossed at iter %d",
				p.iter, sigma, cutoffIter)
		}
		if err := p.RunIteration(); err != nil {
			t.Fatal(err)
		}
	}
	if spy.calls == 0 {
		t.Fatal("predictor never called: blend inactive")
	}
	if sigmas[0] < 0.5 {
		t.Errorf("initial blend weight %v, want > 0.5 (early stage is NN-dominated)", sigmas[0])
	}
	if cutoffIter < 0 {
		t.Fatalf("sigma never underflowed the cutoff in %d iterations (final sigma %v)",
			p.iter, sigmas[len(sigmas)-1])
	}
	if spy.calls != callsAtCutoff {
		t.Errorf("%d predictor calls after sigma underflow at iter %d",
			spy.calls-callsAtCutoff, cutoffIter)
	}
	if got := reg.Counter("xplace_nn_blend_iterations_total", "").Value(); got != int64(spy.calls) {
		t.Errorf("xplace_nn_blend_iterations_total = %d, want %d", got, spy.calls)
	}
	if got := reg.Gauge("xplace_nn_sigma", "").Value(); got > 1e-3 {
		t.Errorf("final xplace_nn_sigma = %v, want <= 1e-3", got)
	}

	// Past the cutoff the code path is predictor-free: resuming a
	// post-cutoff checkpoint with and without the model must agree bit
	// for bit.
	at := cutoffIter + 5
	nnOpts := nnTestOptions()
	nnOpts.Predictor = &nn.Predictor{M: tinyFieldModel(t)}
	cp := checkpointAt(t, nnOpts, at)
	withNN := resumeFrom(t, nnOpts, cp)
	pure := nnTestOptions() // no predictor at all
	withoutNN := resumeFrom(t, pure, cp)
	if withNN.Iterations != withoutNN.Iterations || withNN.HPWL != withoutNN.HPWL ||
		withNN.Overflow != withoutNN.Overflow {
		t.Fatalf("post-cutoff resume differs: with NN %d iters HPWL %v, without %d iters HPWL %v",
			withNN.Iterations, withNN.HPWL, withoutNN.Iterations, withoutNN.HPWL)
	}
	for c := range withNN.X {
		if withNN.X[c] != withoutNN.X[c] || withNN.Y[c] != withoutNN.Y[c] {
			t.Fatalf("cell %d: post-cutoff resume positions differ", c)
		}
	}
	t.Logf("handoff: %d blend iterations, cutoff at iter %d of %d, final HPWL %.1f",
		spy.calls, cutoffIter, withNN.Iterations, withNN.HPWL)
}

// TestNNBlendDeterminism: the blended flow is as deterministic as the
// numerical one — same model + same seed give a bit-identical result,
// and a checkpoint taken inside the blend window resumes (with the same
// model) onto the identical trajectory.
func TestNNBlendDeterminism(t *testing.T) {
	opts := nnTestOptions()
	opts.Predictor = &nn.Predictor{M: tinyFieldModel(t)}
	a := runRef(t, opts)
	b := runRef(t, opts)
	if a.Iterations != b.Iterations || a.HPWL != b.HPWL || a.Overflow != b.Overflow {
		t.Fatalf("repeat NN run differs: %d/%v vs %d/%v", a.Iterations, a.HPWL, b.Iterations, b.HPWL)
	}
	for c := range a.X {
		if a.X[c] != b.X[c] || a.Y[c] != b.Y[c] {
			t.Fatalf("cell %d: repeat NN run positions differ", c)
		}
	}

	// Mid-blend checkpoint/resume (iteration 5 is deep inside the blend
	// window on this fixture).
	cp := checkpointAt(t, opts, 5)
	res := resumeFrom(t, opts, cp)
	if res.Iterations != a.Iterations || res.HPWL != a.HPWL || res.Overflow != a.Overflow {
		t.Fatalf("mid-blend resume: %d iters HPWL %v, uninterrupted %d iters HPWL %v",
			res.Iterations, res.HPWL, a.Iterations, a.HPWL)
	}
	for c := range a.X {
		if res.X[c] != a.X[c] || res.Y[c] != a.Y[c] {
			t.Fatalf("cell %d: mid-blend resume positions differ", c)
		}
	}

	// A run without the predictor must differ during the blend window —
	// the blend is actually doing something.
	pure := runRef(t, nnTestOptions())
	if pure.HPWL == a.HPWL && pure.Iterations == a.Iterations {
		t.Error("NN-blended run identical to pure numerical run: blend had no effect")
	}
}

// TestNNBlendQualityAdaptec1 is the §3.3 acceptance gate: on scaled
// adaptec1 the NN-blended early stage must not need more GP iterations
// than the pure numerical flow, and must land in the same quality band
// (HPWL within 5%, overflow converged). The measured numbers feed the
// EXPERIMENTS.md table.
func TestNNBlendQualityAdaptec1(t *testing.T) {
	spec, ok := benchgen.FindSpec("adaptec1")
	if !ok {
		t.Fatal("adaptec1 spec missing")
	}
	d := benchgen.Generate(spec, 0.004, 1)
	run := func(withNN bool) *Result {
		e := eng()
		defer e.Close()
		opts := Defaults()
		opts.Backend = backend.Float64()
		opts.Sched.MaxIter = 1000
		if withNN {
			opts.Predictor = &nn.Predictor{M: tinyFieldModel(t)}
		}
		p, err := New(d, e, opts)
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		res, err := p.Run()
		if err != nil {
			t.Fatal(err)
		}
		if res.Iterations >= 1000 {
			t.Fatalf("hit MaxIter (overflow %v)", res.Overflow)
		}
		return res
	}
	ref := run(false)
	blended := run(true)
	if blended.Iterations > ref.Iterations {
		t.Errorf("NN-blended run took %d iterations vs numerical %d, want no more",
			blended.Iterations, ref.Iterations)
	}
	// One-sided band: the blend must not cost quality. (On this fixture it
	// lands well below the numerical reference — the smooth low-frequency
	// NN field spreads early clusters the way the multilevel schedule
	// does, so "better" is the expected direction.)
	if rel := (blended.HPWL - ref.HPWL) / ref.HPWL; rel > 0.05 {
		t.Errorf("NN-blended HPWL %v vs numerical %v (rel %+.4f), want no more than 5%% worse",
			blended.HPWL, ref.HPWL, rel)
	}
	if blended.Overflow > 0.10 {
		t.Errorf("NN-blended overflow %v, want converged (<= 0.10)", blended.Overflow)
	}
	t.Logf("adaptec1 x0.004: numerical %d iters HPWL %.1f ovfl %.3f sim %v wall %v | NN-blended %d iters HPWL %.1f ovfl %.3f sim %v wall %v",
		ref.Iterations, ref.HPWL, ref.Overflow, ref.SimTime, ref.WallTime,
		blended.Iterations, blended.HPWL, blended.Overflow, blended.SimTime, blended.WallTime)
}

// TestNNGridTooSmallForModel: a model keeping 4 modes cannot run on a grid
// under 8x8 bins. New must say so — naming grid and modes — instead of
// letting the first blended iteration panic. A predictor without CheckGrid
// is not asked.
func TestNNGridTooSmallForModel(t *testing.T) {
	d := clusteredDesign(t, 60, 5)
	e := eng()
	pred := &nn.Predictor{M: tinyFieldModel(t)} // modes 4

	opts := nnTestOptions()
	opts.GridSize = 4
	opts.Predictor = pred
	_, err := New(d, e, opts)
	if err == nil {
		t.Fatal("New accepted a 4x4 grid for a 4-mode model")
	}
	for _, want := range []string{"4x4", "4 modes"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %q", err, want)
		}
	}

	opts.GridSize = 8
	p, err := New(d, e, opts)
	if err != nil {
		t.Fatalf("8x8 grid, 4 modes: %v", err)
	}
	p.Close()

	opts.GridSize = 4
	opts.Predictor = &spyPredictor{inner: pred}
	p, err = New(d, e, opts)
	if err != nil {
		t.Fatalf("predictor without CheckGrid: %v", err)
	}
	p.Close()
}
