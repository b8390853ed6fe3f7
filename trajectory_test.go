package xplace

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
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
//
// The digest columns pin the bits, not only the schedule: an operator
// fusion that keeps every launch count but reorders one sum moves them.
// They are checked on amd64 only, where Go does not fuse multiply-adds.
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
		records  string // trajectoryDigests: per-iteration records
		position string // trajectoryDigests: final positions
	}{
		{"baseline", base, 1629, 12660.5, "9fc87ddf155caf7b", "54a950ff1219caea"},
		{"xplace-unfused", unfused, 686, 12740.4, "d2d610af241b654e", "21773c724e988489"},
		{"xplace", ref(), 366, 12740.4, "d2d610af241b654e", "21773c724e988489"},
		{"xplace-f32", f32, 653, 12742.8, "419f679f0638f29e", "003b61772fd13d8d"},
		{"xplace-lbub", lbub, 13924, 48977.4, "b6aeef2ff0c0fc97", "bd1e3b323cf4c210"},
		{"xplace-nn", nn, 331, 12509.1, "4b2263730857a4a3", "25c22f999ad673bc"},
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
		t.Logf("%s: %d launches, %d density evaluations, HPWL %.1f",
			c.name, res.Stats.Launches, res.Stats.PerOp["density.gather_field"].Launches, res.HPWL)
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
		recs, pos := trajectoryDigests(res)
		t.Logf("%s: records %s, positions %s", c.name, recs, pos)
		if runtime.GOARCH == "amd64" && (recs != c.records || pos != c.position) {
			t.Errorf("%s: digests records %s positions %s, want %s %s",
				c.name, recs, pos, c.records, c.position)
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

// trajectoryDigests returns two FNV-64a digests over little-endian
// math.Float64bits: one of every iteration record's HPWL, WA, Energy,
// Overflow, Gamma, Lambda, Omega and R, one of the final positions with
// X[i] and Y[i] interleaved.
func trajectoryDigests(res *placer.Result) (records, positions string) {
	h := fnv.New64a()
	var b [8]byte
	put := func(v float64) {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	for _, r := range res.Recorder.History() {
		for _, v := range [...]float64{r.HPWL, r.WA, r.Energy, r.Overflow, r.Gamma, r.Lambda, r.Omega, r.R} {
			put(v)
		}
	}
	records = fmt.Sprintf("%016x", h.Sum64())
	h.Reset()
	for i := range res.X {
		put(res.X[i])
		put(res.Y[i])
	}
	return records, fmt.Sprintf("%016x", h.Sum64())
}
