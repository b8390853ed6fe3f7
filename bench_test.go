package xplace

// Benchmark harness: one testing.B benchmark per paper table/figure, at
// reduced scale so `go test -bench=. -benchmem` completes quickly. The
// full-scale regeneration (all designs, the paper's layout, ratio rows)
// is `go run ./cmd/xbench -all`; see EXPERIMENTS.md for recorded runs.

import (
	"testing"
	"time"

	"xplace/internal/benchgen"
	"xplace/internal/field"
	"xplace/internal/geom"
	"xplace/internal/kernel"
	"xplace/internal/placer"
	"xplace/internal/router"
)

const benchScale = 0.004

func benchEngine() *kernel.Engine {
	return kernel.New(kernel.Options{LaunchOverhead: 150 * time.Microsecond})
}

// BenchmarkTable1Stats measures benchmark synthesis (Table 1's designs).
func BenchmarkTable1Stats(b *testing.B) {
	spec, _ := benchgen.FindSpec("adaptec1")
	for i := 0; i < b.N; i++ {
		d := benchgen.Generate(spec, benchScale, 1)
		_ = d.Stats()
	}
}

// BenchmarkTable2ISPD2005 measures the Table 2 comparison: one GP flow
// per mode on a scaled adaptec1.
func BenchmarkTable2ISPD2005(b *testing.B) {
	spec, _ := benchgen.FindSpec("adaptec1")
	d := benchgen.Generate(spec, benchScale, 1)
	for _, mode := range []struct {
		name string
		opts PlacementOptions
	}{
		{"DREAMPlace", BaselinePlacement()},
		{"Xplace", DefaultPlacement()},
	} {
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p, err := placer.New(d, benchEngine(), mode.opts)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := p.RunIterations(50); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTable3Ablation measures per-iteration cost of each ablation
// configuration (Table 3).
func BenchmarkTable3Ablation(b *testing.B) {
	spec, _ := benchgen.FindSpec("adaptec1")
	d := benchgen.Generate(spec, benchScale, 1)
	cfgs := []struct {
		name           string
		or, oc, oe, os bool
	}{
		{"none", false, false, false, false},
		{"OR", true, false, false, false},
		{"OR_OC", true, true, false, false},
		{"OR_OC_OE", true, true, true, false},
		{"all", true, true, true, true},
	}
	for _, c := range cfgs {
		b.Run(c.name, func(b *testing.B) {
			opts := DefaultPlacement()
			opts.OperatorReduction = c.or
			opts.OperatorCombination = c.oc
			opts.OperatorExtraction = c.oe
			opts.OperatorSkipping = c.os
			p, err := placer.New(d, benchEngine(), opts)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := p.RunIteration(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTable4ISPD2015 measures the Table 4 flow including the OVFL-5
// routing score on a scaled fft_1.
func BenchmarkTable4ISPD2015(b *testing.B) {
	spec, _ := benchgen.FindSpec("fft_1")
	d := benchgen.Generate(spec, 0.01, 1)
	for _, mode := range []struct {
		name string
		opts PlacementOptions
	}{
		{"DREAMPlace", BaselinePlacement()},
		{"Xplace", DefaultPlacement()},
	} {
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p, err := placer.New(d, benchEngine(), mode.opts)
				if err != nil {
					b.Fatal(err)
				}
				res, err := p.RunIterations(50)
				if err != nil {
					b.Fatal(err)
				}
				router.Route(d, res.X, res.Y, router.Options{Grid: 32, Capacity: 3})
			}
		})
	}
}

// BenchmarkPlaceIteration measures one steady-state GP iteration of the
// Xplace fast path — the allocation-regression benchmark: after the
// engine-owned buffer arena, allocs/op must stay near zero.
func BenchmarkPlaceIteration(b *testing.B) {
	spec, _ := benchgen.FindSpec("adaptec1")
	d := benchgen.Generate(spec, benchScale, 1)
	p, err := placer.New(d, benchEngine(), DefaultPlacement())
	if err != nil {
		b.Fatal(err)
	}
	// Warm up past lambda initialization and first-iteration setup.
	for i := 0; i < 5; i++ {
		if err := p.RunIteration(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.RunIteration(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSpectralSolve measures the full Poisson solve (forward DCT,
// spectral scale, batched potential/field evaluation, energy reduce) on a
// production-sized density grid — the dominant non-scatter cost of a GP
// iteration and the target of the v2 spectral engine.
func BenchmarkSpectralSolve(b *testing.B) {
	e := benchEngine()
	defer e.Close()
	g := geom.NewGrid(geom.Rect{Hx: 256, Hy: 256}, 256, 256)
	s := field.NewSystem(g, e)
	for i := range s.Total {
		s.Total[i] = float64(i%17) * 0.05
	}
	s.SolvePoisson(e) // warm the plan scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.SolvePoisson(e)
	}
}

// BenchmarkFigure2OperatorTrace measures one traced GP iteration (the
// Figure 2a dataflow capture).
func BenchmarkFigure2OperatorTrace(b *testing.B) {
	spec, _ := benchgen.FindSpec("adaptec1")
	d := benchgen.Generate(spec, benchScale, 1)
	for i := 0; i < b.N; i++ {
		e := kernel.New(kernel.Options{})
		tr := NewTracer()
		e.SetTracer(tr)
		p, err := placer.New(d, e, DefaultPlacement())
		if err != nil {
			b.Fatal(err)
		}
		if err := p.RunIteration(); err != nil {
			b.Fatal(err)
		}
		_ = tr.KernelLaunchCounts()
	}
}

// BenchmarkFigure3FNOTraining measures FNO training epochs (Figure 3 /
// §4.3).
func BenchmarkFigure3FNOTraining(b *testing.B) {
	m := NewModel(ModelConfig{Width: 6, Modes: 4, Layers: 2, Seed: 1})
	samples := GenerateTrainingSamples(8, 16, 16, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Train(samples, TrainOptions{Epochs: 1, LR: 1e-3})
	}
}

// BenchmarkFigure3FNOInference measures one field prediction at the
// placer's working resolution.
func BenchmarkFigure3FNOInference(b *testing.B) {
	m := NewModel(ModelConfig{Width: 6, Modes: 4, Layers: 2, Seed: 1})
	dens := make([]float64, 64*64)
	for i := range dens {
		dens[i] = float64(i%13) * 0.1
	}
	ex := make([]float64, 64*64)
	ey := make([]float64, 64*64)
	pred := NewFieldPredictor(m)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pred.PredictField(dens, 64, 64, ex, ey)
	}
}

// BenchmarkFullFlow measures the end-to-end flow (GP to convergence,
// legalization, detailed placement) on a small design.
func BenchmarkFullFlow(b *testing.B) {
	spec, _ := benchgen.FindSpec("pci_bridge32_a")
	d := benchgen.Generate(spec, 0.02, 1)
	for i := 0; i < b.N; i++ {
		if _, err := RunFlow(d, FlowOptions{
			Placement: DefaultPlacement(),
			Legalizer: LegalizeTetris,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationLaunchOverhead sweeps the simulated kernel-launch cost
// (DESIGN.md §5.1): fusing matters more as launches get more expensive.
func BenchmarkAblationLaunchOverhead(b *testing.B) {
	spec, _ := benchgen.FindSpec("adaptec1")
	d := benchgen.Generate(spec, benchScale, 1)
	for _, us := range []int{0, 50, 150, 500} {
		b.Run(time.Duration(us*int(time.Microsecond)).String(), func(b *testing.B) {
			e := kernel.New(kernel.Options{LaunchOverhead: time.Duration(us) * time.Microsecond})
			p, err := placer.New(d, e, DefaultPlacement())
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := p.RunIteration(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(e.Stats().Simulated.Microseconds())/float64(b.N), "sim-us/iter")
		})
	}
}
