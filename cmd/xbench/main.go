// Command xbench regenerates every table and figure of the paper's
// evaluation (§4) on the synthetic contest benchmarks:
//
//	-table 1   benchmark statistics (Table 1)
//	-table 2   ISPD 2005: HPWL / GP / DP for DREAMPlace-style baseline,
//	           Xplace, Xplace-NN (Table 2)
//	-table 3   ablation of the operator-level optimizations (Table 3)
//	-table 4   ISPD 2015: HPWL, OVFL-5, GP / DP (Table 4)
//	-figure 2  operator-extraction kernel trace (Figure 2a) and the
//	           hybrid autograd/numerical gradient check (Figure 2b)
//	-figure 3  FNO training curve, parameter count, resolution transfer
//	           and flip trick (Figure 3 / §4.3)
//	-figure r  the early-stage r = lambda|gradD|/|gradWL| trace (§3.1.4)
//	-all       everything
//
// GP seconds are SIMULATED seconds: parallel compute plus kernel-launch
// cost on the engine's simulated clock (see DESIGN.md); the -launch flag
// sets the per-launch cost in microseconds. Absolute numbers differ from
// the paper's RTX 3090 wall clock; the comparisons within each table are
// the reproduction target.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"xplace"
	"xplace/internal/backend"
	"xplace/internal/benchgen"
	"xplace/internal/kernel"
	"xplace/internal/obs"
	"xplace/internal/placer"
)

var (
	scale2005 = flag.Float64("scale2005", 0.01, "ISPD 2005 benchmark scale")
	scale2015 = flag.Float64("scale2015", 0.01, "ISPD 2015 benchmark scale")
	seed      = flag.Int64("seed", 1, "generator / placer seed")
	workers   = flag.Int("workers", 0, "kernel engine workers (0 = NumCPU)")
	launchUS  = flag.Int("launch", 150, "simulated kernel-launch cost in microseconds")
	iters     = flag.Int("iters", 300, "fixed GP iterations for the ablation (table 3)")
	quick     = flag.Bool("quick", false, "run a 3-design subset of each suite")
	table     = flag.Int("table", 0, "regenerate one table (1-4)")
	figure    = flag.String("figure", "", "regenerate one figure (2, 3, r)")
	all       = flag.Bool("all", false, "regenerate every table and figure")
	backendN  = flag.String("backend", "", "compute backend for the table/figure runs: float64 | float32 (default follows XPLACE_BACKEND)")
	strategyN = flag.String("strategy", "", "GP strategy for the Xplace table rows: nesterov | lbub")
	modelPath = flag.String("model", "", "trained field-model artifact for the Xplace-NN column (default: train a small FNO in-process)")
)

// runStrategy is the parsed -strategy choice applied to the Xplace rows of
// the flow tables (the default Strategy zero value when the flag is unset).
var runStrategy xplace.Strategy

// defaultPlacement is xplace.DefaultPlacement with the -strategy override
// applied.
func defaultPlacement() xplace.PlacementOptions {
	o := xplace.DefaultPlacement()
	o.Strategy = runStrategy
	return o
}

func engine() *kernel.Engine {
	return kernel.New(kernel.Options{
		Workers:        *workers,
		LaunchOverhead: time.Duration(*launchUS) * time.Microsecond,
	})
}

func main() {
	flag.Parse()
	if *backendN != "" {
		if _, err := xplace.LookupBackend(*backendN); err != nil {
			fmt.Fprintln(os.Stderr, "xbench:", err)
			os.Exit(2)
		}
		// The tables and figures build many configs through many helpers;
		// rather than threading the choice through each one, set the
		// process default every backend.Resolve(nil) call site follows.
		os.Setenv(backend.EnvVar, *backendN)
	}
	if st, err := xplace.ParseStrategy(*strategyN); err != nil {
		fmt.Fprintln(os.Stderr, "xbench:", err)
		os.Exit(2)
	} else {
		runStrategy = st
	}
	if !*all && *table == 0 && *figure == "" {
		flag.Usage()
		os.Exit(2)
	}
	if *all || *table == 1 {
		table1()
	}
	if *all || *table == 2 {
		table2()
	}
	if *all || *table == 3 {
		table3()
	}
	if *all || *table == 4 {
		table4()
	}
	if *all || *figure == "2" {
		figure2()
	}
	if *all || *figure == "3" {
		figure3()
	}
	if *all || *figure == "r" {
		figureR()
	}
}

func subset(specs []benchgen.Spec, n int) []benchgen.Spec {
	if !*quick || len(specs) <= n {
		return specs
	}
	return specs[:n]
}

// ---------------------------------------------------------------- table 1

func table1() {
	fmt.Println("== Table 1: Benchmarks Statistics ==")
	fmt.Printf("(published full-size counts; generated at scale %g / %g)\n\n", *scale2005, *scale2015)
	fmt.Printf("%-10s %-16s %10s %10s %12s %12s\n",
		"suite", "design", "#cells", "#nets", "#cells(gen)", "#nets(gen)")
	emit := func(specs []benchgen.Spec, scale float64) {
		for _, s := range specs {
			d := benchgen.Generate(s, scale, *seed)
			st := d.Stats()
			fmt.Printf("%-10s %-16s %10d %10d %12d %12d\n",
				s.Suite, s.Name, s.Cells, s.Nets, st.Movable, st.Nets)
		}
	}
	emit(subset(benchgen.Catalog2005(), 3), *scale2005)
	emit(subset(benchgen.Catalog2015(), 3), *scale2015)
	fmt.Println()
}

// ---------------------------------------------------------------- table 2

type flowRow struct {
	hpwl   float64
	gpSec  float64 // simulated
	dpSec  float64 // wall: legalization + detailed placement
	ovfl5  float64
	failed bool
}

// runFlow runs one flow on a fresh engine of its own, closed on return.
func runFlow(d *xplace.Design, opts xplace.PlacementOptions, route *xplace.RouteOptions) flowRow {
	s := xplace.NewSession(xplace.WithEngineOptions(*workers, time.Duration(*launchUS)*time.Microsecond))
	defer s.Close()
	fr, err := s.Flow(context.Background(), d, xplace.FlowOptions{
		Placement: opts,
		Legalizer: xplace.LegalizeTetris,
		Route:     route,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "flow failed: %v\n", err)
		return flowRow{failed: true}
	}
	row := flowRow{
		hpwl:  fr.HPWLFinal,
		gpSec: fr.GPSim.Seconds(),
		dpSec: (fr.LGTime + fr.DPTime).Seconds(),
	}
	if fr.Route != nil {
		row.ovfl5 = fr.Route.Top5Overflow
	}
	return row
}

func trainSmallFNO() *xplace.Model {
	cfg := xplace.ModelConfig{Width: 6, Modes: 4, Layers: 2, Seed: *seed}
	m := xplace.NewModel(cfg)
	samples := xplace.GenerateTrainingSamples(24, 32, 32, *seed)
	m.Train(samples, xplace.TrainOptions{Epochs: 25, LR: 2e-3, Seed: *seed})
	return m
}

var (
	predOnce sync.Once
	pred     xplace.FieldPredictor
)

// fieldPredictor returns the predictor behind the Xplace-NN column: the
// -model artifact when one is given, else a small FNO trained in-process
// with pinned hyperparameters — fully deterministic at a given -seed.
func fieldPredictor() xplace.FieldPredictor {
	predOnce.Do(func() {
		if *modelPath != "" {
			fh, err := os.Open(*modelPath)
			if err != nil {
				fmt.Fprintln(os.Stderr, "xbench:", err)
				os.Exit(1)
			}
			defer fh.Close()
			m, err := xplace.LoadModel(fh)
			if err != nil {
				fmt.Fprintf(os.Stderr, "xbench: model %s: %v\n", *modelPath, err)
				os.Exit(1)
			}
			pred = xplace.NewFieldPredictor(m)
			return
		}
		fmt.Println("training the small in-process FNO (supply one with -model to skip)...")
		pred = xplace.NewFieldPredictor(trainSmallFNO())
	})
	return pred
}

func table2() {
	fmt.Println("== Table 2: HPWL and runtime on the ISPD 2005 benchmarks ==")
	fmt.Println("(HPWL after LG+DP; GP/s simulated, DP/s wall; paper shape:")
	fmt.Println(" Xplace ~1.6x GP speedup over DREAMPlace at equal-or-better HPWL,")
	fmt.Println(" Xplace-NN ~1 permille better HPWL than Xplace)")
	fmt.Println()
	pred := fieldPredictor()

	specs := subset(benchgen.Catalog2005(), 3)
	fmt.Printf("\n%-10s | %12s %8s %8s | %12s %8s %8s | %12s %8s %8s\n",
		"", "DREAMPlace", "GP/s", "DP/s", "Xplace", "GP/s", "DP/s", "Xplace-NN", "GP/s", "DP/s")
	fmt.Printf("%-10s | %12s %8s %8s | %12s %8s %8s | %12s %8s %8s\n",
		"design", "HPWL", "", "", "HPWL", "", "", "HPWL", "", "")
	var sum [3]flowRow
	for _, s := range specs {
		d := benchgen.Generate(s, *scale2005, *seed)

		base := xplace.BaselinePlacement()
		base.Seed = *seed
		rb := runFlow(d, base, nil)

		xp := defaultPlacement()
		xp.Seed = *seed
		rx := runFlow(d, xp, nil)

		xn := xplace.DefaultPlacement()
		xn.Seed = *seed
		xn.Predictor = pred
		rn := runFlow(d, xn, nil)

		fmt.Printf("%-10s | %12.4g %8.2f %8.2f | %12.4g %8.2f %8.2f | %12.4g %8.2f %8.2f\n",
			s.Name, rb.hpwl, rb.gpSec, rb.dpSec, rx.hpwl, rx.gpSec, rx.dpSec, rn.hpwl, rn.gpSec, rn.dpSec)
		for i, r := range []flowRow{rb, rx, rn} {
			sum[i].hpwl += r.hpwl
			sum[i].gpSec += r.gpSec
			sum[i].dpSec += r.dpSec
		}
	}
	fmt.Printf("%-10s | %12.4g %8.2f %8.2f | %12.4g %8.2f %8.2f | %12.4g %8.2f %8.2f\n",
		"Sum", sum[0].hpwl, sum[0].gpSec, sum[0].dpSec,
		sum[1].hpwl, sum[1].gpSec, sum[1].dpSec,
		sum[2].hpwl, sum[2].gpSec, sum[2].dpSec)
	fmt.Printf("%-10s | %12.4f %8.3f %8.3f | %12.4f %8.3f %8.3f | %12.4f %8.3f %8.3f\n\n",
		"Ratio",
		sum[0].hpwl/sum[1].hpwl, sum[0].gpSec/sum[1].gpSec, sum[0].dpSec/sum[1].dpSec,
		1.0, 1.0, 1.0,
		sum[2].hpwl/sum[1].hpwl, sum[2].gpSec/sum[1].gpSec, sum[2].dpSec/sum[1].dpSec)
}

// ---------------------------------------------------------------- table 3

func table3() {
	fmt.Println("== Table 3: Ablation of the operator-level optimizations ==")
	fmt.Printf("(simulated time per GP iteration over %d fixed iterations;\n", *iters)
	fmt.Println(" Xplace = 100%; paper shape: none 159%, +OR 113%, +OC 108%,")
	fmt.Println(" +OE 104%, DREAMPlace 296%)")
	fmt.Println()
	type cfg struct {
		name           string
		or, oc, oe, os bool
		mode           placer.Mode
	}
	cfgs := []cfg{
		{"none", false, false, false, false, placer.ModeXplace},
		{"+OR", true, false, false, false, placer.ModeXplace},
		{"+OR+OC", true, true, false, false, placer.ModeXplace},
		{"+OR+OC+OE", true, true, true, false, placer.ModeXplace},
		{"Xplace(all)", true, true, true, true, placer.ModeXplace},
		{"DREAMPlace", false, false, false, false, placer.ModeBaseline},
	}
	specs := subset(benchgen.Catalog2005(), 3)
	perIter := make(map[string][]float64) // cfg -> per-design ms/iter
	for _, s := range specs {
		d := benchgen.Generate(s, *scale2005, *seed)
		for _, c := range cfgs {
			opts := placer.Defaults()
			opts.Mode = c.mode
			opts.OperatorReduction = c.or
			opts.OperatorCombination = c.oc
			opts.OperatorExtraction = c.oe
			opts.OperatorSkipping = c.os
			opts.Seed = *seed
			e := engine()
			p, err := placer.New(d, e, opts)
			if err != nil {
				fmt.Fprintln(os.Stderr, "table3:", err)
				return
			}
			res, err := p.RunIterations(*iters)
			if err != nil {
				fmt.Fprintln(os.Stderr, "table3:", err)
				return
			}
			perIter[c.name] = append(perIter[c.name],
				res.SimTime.Seconds()*1000/float64(res.Iterations))
		}
	}
	header := fmt.Sprintf("%-12s", "config")
	for _, s := range specs {
		header += fmt.Sprintf(" %10s", s.Name)
	}
	fmt.Println(header + "        Avg")
	printRow := func(name string, ratio bool) {
		row := fmt.Sprintf("%-12s", name)
		var avg float64
		for i := range perIter[name] {
			v := perIter[name][i]
			if ratio {
				v = 100 * v / perIter["Xplace(all)"][i]
				row += fmt.Sprintf(" %9.0f%%", v)
			} else {
				row += fmt.Sprintf(" %10.3f", v)
			}
			avg += v
		}
		avg /= float64(len(perIter[name]))
		if ratio {
			row += fmt.Sprintf(" %9.0f%%", avg)
		} else {
			row += fmt.Sprintf(" %10.3f", avg)
		}
		fmt.Println(row)
	}
	for _, c := range cfgs {
		printRow(c.name, true)
	}
	fmt.Println()
	fmt.Println("absolute ms/iter:")
	printRow("Xplace(all)", false)
	printRow("DREAMPlace", false)
	fmt.Println()
}

// ---------------------------------------------------------------- table 4

func table4() {
	fmt.Println("== Table 4: HPWL, OVFL-5 and runtime on the ISPD 2015 benchmarks ==")
	fmt.Println("(fence regions removed; paper shape: Xplace ~2.8x GP speedup,")
	fmt.Println(" equal HPWL and OVFL-5)")
	fmt.Println()
	specs := subset(benchgen.Catalog2015(), 3)
	route := &xplace.RouteOptions{Grid: 64, Capacity: 3}
	fmt.Printf("%-16s | %12s %8s %8s %8s | %12s %8s %8s %8s\n",
		"", "DREAMPlace", "OVFL-5", "GP/s", "DP/s", "Xplace", "OVFL-5", "GP/s", "DP/s")
	fmt.Printf("%-16s | %12s %8s %8s %8s | %12s %8s %8s %8s\n",
		"design", "HPWL", "", "", "", "HPWL", "", "", "")
	var sum [2]flowRow
	for _, s := range specs {
		d := benchgen.Generate(s, *scale2015, *seed)
		name := s.Name
		if s.Fence {
			name += "+" // dagger: fence constraints removed
		}
		base := xplace.BaselinePlacement()
		base.Seed = *seed
		rb := runFlow(d, base, route)
		xp := defaultPlacement()
		xp.Seed = *seed
		rx := runFlow(d, xp, route)
		fmt.Printf("%-16s | %12.4g %8.2f %8.2f %8.2f | %12.4g %8.2f %8.2f %8.2f\n",
			name, rb.hpwl, rb.ovfl5, rb.gpSec, rb.dpSec, rx.hpwl, rx.ovfl5, rx.gpSec, rx.dpSec)
		for i, r := range []flowRow{rb, rx} {
			sum[i].hpwl += r.hpwl
			sum[i].ovfl5 += r.ovfl5
			sum[i].gpSec += r.gpSec
			sum[i].dpSec += r.dpSec
		}
	}
	fmt.Printf("%-16s | %12.4g %8.2f %8.2f %8.2f | %12.4g %8.2f %8.2f %8.2f\n",
		"Sum", sum[0].hpwl, sum[0].ovfl5, sum[0].gpSec, sum[0].dpSec,
		sum[1].hpwl, sum[1].ovfl5, sum[1].gpSec, sum[1].dpSec)
	ovflRatio := 1.0
	if sum[1].ovfl5 > 0 {
		ovflRatio = sum[0].ovfl5 / sum[1].ovfl5
	}
	fmt.Printf("%-16s | %12.4f %8.3f %8.3f %8.3f | %12.4f %8.3f %8.3f %8.3f\n\n",
		"Ratio",
		sum[0].hpwl/sum[1].hpwl, ovflRatio,
		sum[0].gpSec/sum[1].gpSec, sum[0].dpSec/sum[1].dpSec,
		1.0, 1.0, 1.0, 1.0)
}

// --------------------------------------------------------------- figure 2

func figure2() {
	fmt.Println("== Figure 2(a): operator extraction dataflow ==")
	fmt.Println("(kernel trace of one GP iteration; with OE the cell density map")
	fmt.Println(" is scattered ONCE and reused for the total map and OVFL)")
	fmt.Println()
	d, _ := xplace.GenerateBenchmark("adaptec1", 0.005, *seed)
	for _, oe := range []bool{true, false} {
		e := kernel.New(kernel.Options{Workers: *workers})
		tr := obs.NewTracer()
		e.SetTracer(tr)
		opts := placer.Defaults()
		opts.OperatorExtraction = oe
		opts.OperatorSkipping = false
		p, err := placer.New(d, e, opts)
		if err != nil {
			fmt.Fprintln(os.Stderr, "figure2:", err)
			return
		}
		if _, err := p.RunIterations(1); err != nil {
			fmt.Fprintln(os.Stderr, "figure2:", err)
			return
		}
		var densOps []string
		for _, ev := range tr.Events() {
			if ev.Cat != obs.CatKernel {
				continue
			}
			// A paired launch is traced as "a+b".
			for _, name := range strings.Split(ev.Name, "+") {
				if strings.HasPrefix(name, "density.") || strings.HasPrefix(name, "poisson.") {
					densOps = append(densOps, name)
				}
			}
		}
		fmt.Printf("OE=%v density-path kernels: %s\n", oe, strings.Join(densOps, " -> "))
	}
	fmt.Println()
	fmt.Println("== Figure 2(b): hybrid numerical + autograd gradients ==")
	fmt.Println("(a user-defined loss differentiated by the autograd engine is")
	fmt.Println(" accumulated onto the numerically computed placement gradient;")
	fmt.Println(" exercised by placer.Options.ExtraGradient — see")
	fmt.Println(" TestExtraGradientHook and the tensor package's custom-op tests)")
	fmt.Println()
}

// --------------------------------------------------------------- figure 3

func figure3() {
	fmt.Println("== Figure 3 / §4.3: the Fourier neural operator ==")
	m := xplace.NewModel(xplace.DefaultModelConfig())
	fmt.Printf("paper-scale model parameters: %d (paper: 471k, '60%% of U-Net')\n\n", m.ParamCount())

	small := xplace.ModelConfig{Width: 6, Modes: 4, Layers: 2, Seed: *seed}
	sm := xplace.NewModel(small)
	train := xplace.GenerateTrainingSamples(24, 16, 16, *seed)
	testLo := xplace.GenerateTrainingSamples(8, 16, 16, *seed+100)
	testHi := xplace.GenerateTrainingSamples(8, 32, 32, *seed+200)

	fmt.Println("training curve (rel-L2, small config for speed):")
	sm.Train(train, xplace.TrainOptions{
		Epochs: 30, LR: 2e-3, Seed: *seed,
		Log: func(ep int, loss float64) {
			if ep%5 == 0 || ep == 29 {
				fmt.Printf("  epoch %3d  loss %.4f\n", ep, loss)
			}
		},
	})
	fmt.Printf("\nheld-out 16x16 x-field rel-L2:          %.3f\n", sm.Evaluate(testLo))
	fmt.Printf("resolution transfer to 32x32:           %.3f (model never saw 32x32)\n", sm.Evaluate(testHi))
	fmt.Printf("y-field via the flip trick:             %.3f\n", sm.EvaluateFlipY(testLo))
	fmt.Println()
}

// --------------------------------------------------------------- figure r

func figureR() {
	fmt.Println("== §3.1.4: r = lambda*|gradD| / |gradWL| over the GP run ==")
	fmt.Println("(ultra-small early — justifying operator skipping — then rising)")
	fmt.Println()
	d, _ := xplace.GenerateBenchmark("adaptec1", 0.005, *seed)
	opts := placer.Defaults()
	opts.OperatorSkipping = false // record the true r every iteration
	opts.Seed = *seed
	p, err := placer.New(d, engine(), opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "figureR:", err)
		return
	}
	res, err := p.Run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "figureR:", err)
		return
	}
	hist := res.Recorder.History()
	maxR := 0.0
	for _, rec := range hist {
		if rec.R > maxR {
			maxR = rec.R
		}
	}
	step := len(hist) / 24
	if step == 0 {
		step = 1
	}
	for i := 0; i < len(hist); i += step {
		rec := hist[i]
		bar := int(40 * rec.R / maxR)
		fmt.Printf("iter %4d  r=%-10.4g %s\n", rec.Iter, rec.R, strings.Repeat("#", bar))
	}
	below := 0
	for _, rec := range hist[:min(100, len(hist))] {
		if rec.R < 0.01 {
			below++
		}
	}
	fmt.Printf("\niterations with r < 0.01 among the first 100: %d\n\n", below)
	_ = sort.Float64s
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
