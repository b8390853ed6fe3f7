package xplace

import (
	"testing"
	"time"

	"xplace/internal/kernel"
	"xplace/internal/placer"
)

// TestGoldenTrajectory pins the operator schedule of six placer
// configurations on one small design: adaptec1 x 0.004, seed 1, 4 workers,
// 150 us launches, 60 fixed iterations. Bench, scale, iteration count and
// worker count all feed the schedule (same chunk boundaries -> same FP sums
// -> same OS skip decisions -> same launch counts), so the launch column is
// exact: a change that moves one of these numbers changed what the placer
// launches, and re-pinning it is a deliberate act in the same commit. HPWL
// gets a 5% band per config, and three mid-trajectory ratios keep the
// alternative paths honest against the fused float64 reference.
//
// The first three configs are the paper's operator ablation (autograd
// baseline, Xplace without operator combination, full Xplace — the gap
// between the last two is the OC saving of §3.1.1; their strict launch
// ordering follows from the exact counts). The fourth isolates the float32
// compute backend, the last two the alternative placement paths.
// Every config pins its Backend, so XPLACE_BACKEND cannot move the numbers.
func TestGoldenTrajectory(t *testing.T) {
	const (
		seed    = 1
		iters   = 60
		hpwlTol = 0.05
	)
	d, err := GenerateBenchmark("adaptec1", 0.004, seed)
	if err != nil {
		t.Fatal(err)
	}

	ref := func() PlacementOptions {
		o := DefaultPlacement()
		o.Backend = Float64Backend()
		return o
	}
	base := BaselinePlacement()
	base.Backend = Float64Backend()
	unfused := ref()
	unfused.OperatorCombination = false
	f32 := DefaultPlacement()
	f32.Backend = Float32Backend()
	lbub := ref()
	lbub.Strategy = StrategyLBUB
	// The FNO `xbench -table 2` trains in-process: pinned hyperparameters,
	// deterministic at a given seed.
	model := NewModel(ModelConfig{Width: 6, Modes: 4, Layers: 2, Seed: seed})
	model.Train(GenerateTrainingSamples(24, 32, 32, seed), TrainOptions{Epochs: 25, LR: 2e-3, Seed: seed})
	nn := ref()
	nn.Predictor = NewFieldPredictor(model)

	hpwl := map[string]float64{}
	for _, c := range []struct {
		name     string
		opts     PlacementOptions
		launches int64
		hpwl     float64
	}{
		{"baseline", base, 2168, 12660.5},
		{"xplace-unfused", unfused, 1073, 12740.4},
		{"xplace", ref(), 953, 12740.4},
		{"xplace-f32", f32, 1076, 12742.8},
		{"xplace-lbub", lbub, 13924, 48977.4},
		{"xplace-nn", nn, 728, 12509.1},
	} {
		e := kernel.New(kernel.Options{Workers: 4, LaunchOverhead: 150 * time.Microsecond})
		opts := c.opts
		opts.Seed = seed
		p, err := placer.New(d, e, opts)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		res, err := p.RunIterations(iters)
		p.Close()
		e.Close()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		t.Logf("%s: %d launches, HPWL %.1f", c.name, res.Stats.Launches, res.HPWL)
		if res.Iterations != iters {
			t.Errorf("%s: ran %d iterations, want %d", c.name, res.Iterations, iters)
		}
		if res.Stats.Launches != c.launches {
			t.Errorf("%s: %d launches, want exactly %d", c.name, res.Stats.Launches, c.launches)
		}
		if rel := res.HPWL/c.hpwl - 1; rel > hpwlTol || rel < -hpwlTol {
			t.Errorf("%s: HPWL %.6g is %+.1f%% off the pinned %.6g (band %.0f%%)",
				c.name, res.HPWL, 100*rel, c.hpwl, 100*hpwlTol)
		}
		hpwl[c.name] = res.HPWL
	}

	// Mid-trajectory ratios against the fused float64 run. They are coarser
	// than the to-convergence gates (TestFloat32BackendQuality,
	// TestNNBlendQualityAdaptec1, TestOracleLBUBvsNesterovAdaptec1) because
	// trajectories differ more at iteration 60 than at convergence: the
	// flow's cells have not spread yet (overflow ~0.8) while the LB/UB upper
	// bound is already fully binned, hence the ratio near 3.8.
	for _, r := range []struct {
		config string
		lo, hi float64
	}{
		{"xplace-f32", 0.95, 1.05},
		{"xplace-nn", 0.90, 1.10},
		{"xplace-lbub", 2, 6},
	} {
		if ratio := hpwl[r.config] / hpwl["xplace"]; ratio < r.lo || ratio > r.hi {
			t.Errorf("%s / xplace HPWL ratio %.3f outside [%g, %g]", r.config, ratio, r.lo, r.hi)
		}
	}
}
