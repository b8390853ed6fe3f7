// Command xplace runs the full placement flow on a design: global
// placement (Xplace fast path or the DREAMPlace-style baseline),
// legalization, detailed placement and optional routability scoring.
//
// Input is either a synthetic contest benchmark (-bench, see -list) or a
// design file (-in, format autodetected: bookshelf .aux or DEF with -lef).
// The placed result can be written back as a bookshelf .pl (-out).
//
// Examples:
//
//	xplace -bench adaptec1 -scale 0.02
//	xplace -in design.aux -legalizer abacus -out placed.pl
//	xplace -in design.def -lef cells.lef
//	xplace -bench fft_1 -mode baseline -route
//	xplace -bench adaptec1 -trace out.json   # Chrome about:tracing JSON
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"xplace"
)

func main() {
	var (
		bench     = flag.String("bench", "", "synthetic benchmark name (see -list)")
		scale     = flag.Float64("scale", 0.02, "benchmark scale factor")
		seed      = flag.Int64("seed", 1, "generator / placer seed")
		in        = flag.String("in", "", "design input file (bookshelf .aux or DEF; format autodetected)")
		lef       = flag.String("lef", "", "LEF cell library (required for DEF inputs)")
		mode      = flag.String("mode", "xplace", "GP engine: xplace | baseline | xplace-nn")
		backendN  = flag.String("backend", "", "compute backend: float64 (exact reference) | float32 (fast path); default follows XPLACE_BACKEND")
		strategy  = flag.String("strategy", "", "GP strategy: nesterov (default gradient flow) | lbub (LB/UB alternation draft tier)")
		effort    = flag.Int("effort", 0, "lbub effort preset 1..9 (0 = default)")
		legalizer = flag.String("legalizer", "tetris", "legalizer: tetris | abacus")
		grid      = flag.Int("grid", 0, "density grid size (power of two, 0 = auto)")
		maxIter   = flag.Int("max-iter", 0, "GP iteration cap (0 = default)")
		target    = flag.Float64("density", 1.0, "target density")
		workers   = flag.Int("workers", 0, "kernel engine workers (0 = NumCPU)")
		route     = flag.Bool("route", false, "score routability (OVFL-5) after placement")
		model     = flag.String("model", "", "trained field-model artifact to blend into early GP (implied by -mode xplace-nn)")
		out       = flag.String("out", "", "write placed .pl file")
		svg       = flag.String("svg", "", "write placement SVG image")
		trace     = flag.String("trace", "", "write an operator/kernel trace of the run as Chrome trace_event JSON (load in about:tracing or Perfetto)")
		csv       = flag.Bool("csv", false, "dump per-iteration metrics CSV to stdout")
		stats     = flag.Bool("stats", false, "print GP engine stats (launches, arena, per-op allocs)")
		list      = flag.Bool("list", false, "list available synthetic benchmarks")
	)
	flag.Parse()

	if *list {
		fmt.Println("ISPD 2005:")
		for _, s := range xplace.Catalog2005() {
			fmt.Printf("  %-16s %8d cells %8d nets\n", s.Name, s.Cells, s.Nets)
		}
		fmt.Println("ISPD 2015:")
		for _, s := range xplace.Catalog2015() {
			fmt.Printf("  %-16s %8d cells %8d nets\n", s.Name, s.Cells, s.Nets)
		}
		return
	}

	var d *xplace.Design
	var err error
	switch {
	case *in != "":
		var lopts []xplace.LoadOption
		if *lef != "" {
			lopts = append(lopts, xplace.WithLEF(*lef))
		}
		d, err = xplace.Load(*in, lopts...)
	case *bench != "":
		d, err = xplace.GenerateBenchmark(*bench, *scale, *seed)
	default:
		fmt.Fprintln(os.Stderr, "xplace: need -bench or -in (see -h)")
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "xplace:", err)
		os.Exit(1)
	}
	st := d.Stats()
	fmt.Printf("design %s: %d cells (%d movable, %d fixed), %d nets, %d pins, util %.2f\n",
		st.Name, st.Cells, st.Movable, st.Fixed, st.Nets, st.Pins, st.Util)

	eng := xplace.NewEngine(*workers, -1)
	var tr *xplace.Tracer
	sopts := []xplace.Option{xplace.WithEngine(eng)}
	if *backendN != "" {
		bopt, err := xplace.WithBackendName(*backendN)
		if err != nil {
			fmt.Fprintln(os.Stderr, "xplace:", err)
			os.Exit(2)
		}
		sopts = append(sopts, bopt)
	}
	strat, err := xplace.ParseStrategy(*strategy)
	if err != nil {
		fmt.Fprintln(os.Stderr, "xplace:", err)
		os.Exit(2)
	}
	if *trace != "" {
		tr = xplace.NewTracer()
		sopts = append(sopts, xplace.WithTracer(tr))
	}
	if *mode == "xplace-nn" && *model == "" {
		fmt.Fprintln(os.Stderr, "xplace: -mode xplace-nn requires -model (train one with xtrain)")
		os.Exit(2)
	}
	var pred xplace.FieldPredictor
	if *model != "" {
		// The artifact is integrity-checked here, before placement — a bad
		// file is a clean CLI error, not a mid-placement failure.
		if pred, err = loadPredictor(*model); err != nil {
			fmt.Fprintln(os.Stderr, "xplace:", err)
			os.Exit(1)
		}
	}
	session := xplace.NewSession(sopts...)
	defer session.Close()
	defer eng.Close()
	opts := xplace.FlowOptions{}
	switch *mode {
	case "baseline":
		opts.Placement = xplace.BaselinePlacement()
	case "xplace-nn":
		// The model itself was loaded above (-model); the mode only selects
		// the full-optimization placement configuration it blends into.
		opts.Placement = xplace.DefaultPlacement()
	default:
		opts.Placement = xplace.DefaultPlacement()
	}
	opts.Placement.Strategy = strat
	opts.Placement.Predictor = pred
	opts.Placement.GridSize = *grid
	opts.Placement.TargetDensity = *target
	opts.Placement.Seed = *seed
	opts.Placement.Effort = *effort
	if *maxIter > 0 {
		opts.Placement.Sched.MaxIter = *maxIter
	}
	if *legalizer == "abacus" {
		opts.Legalizer = xplace.LegalizeAbacus
	}
	if *route {
		opts.Route = &xplace.RouteOptions{}
	}

	fr, err := session.Flow(context.Background(), d, opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "xplace:", err)
		os.Exit(1)
	}
	fmt.Printf("GP:    HPWL %.4g  overflow %.3f  iters %d  wall %v  sim %v\n",
		fr.HPWLGP, fr.GP.Overflow, fr.GP.Iterations, fr.GPTime.Round(1e6), fr.GPSim.Round(1e6))
	fmt.Printf("LG:    HPWL %.4g  (%+.2f%%)  %v\n",
		fr.HPWLLegal, 100*(fr.HPWLLegal/fr.HPWLGP-1), fr.LGTime.Round(1e6))
	fmt.Printf("DP:    HPWL %.4g  (%+.2f%% vs LG)  %v  violations %d\n",
		fr.HPWLFinal, 100*(fr.HPWLFinal/fr.HPWLLegal-1), fr.DPTime.Round(1e6), fr.Violations)
	if fr.Route != nil {
		fmt.Printf("route: OVFL-5 %.2f  total overflow %.0f  wirelength %d gcells\n",
			fr.Route.Top5Overflow, fr.Route.TotalOverflow, fr.Route.WirelengthGCells)
	}
	if *stats {
		fmt.Print("GP engine stats:\n", eng.Stats())
	}
	if *csv {
		if err := fr.GP.Recorder.WriteCSV(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "xplace:", err)
			os.Exit(1)
		}
	}
	if tr != nil {
		fh, err := os.Create(*trace)
		if err != nil {
			fmt.Fprintln(os.Stderr, "xplace:", err)
			os.Exit(1)
		}
		if err := tr.WriteChromeTrace(fh); err != nil {
			fh.Close()
			fmt.Fprintln(os.Stderr, "xplace:", err)
			os.Exit(1)
		}
		if err := fh.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "xplace:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s (%d trace events; open in about:tracing or ui.perfetto.dev)\n", *trace, tr.Len())
	}
	if *out != "" {
		if err := xplace.WritePlacementPl(*out, d, fr.FinalX, fr.FinalY); err != nil {
			fmt.Fprintln(os.Stderr, "xplace:", err)
			os.Exit(1)
		}
		fmt.Println("wrote", *out)
	}
	if *svg != "" {
		fh, err := os.Create(*svg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "xplace:", err)
			os.Exit(1)
		}
		if err := xplace.WriteSVG(fh, d, fr.FinalX, fr.FinalY); err != nil {
			fh.Close()
			fmt.Fprintln(os.Stderr, "xplace:", err)
			os.Exit(1)
		}
		if err := fh.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "xplace:", err)
			os.Exit(1)
		}
		fmt.Println("wrote", *svg)
	}
}

// loadPredictor opens and loads the model artifact at path as a field
// predictor. Load errors carry the typed ErrModel* sentinels.
func loadPredictor(path string) (xplace.FieldPredictor, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	m, err := xplace.LoadModel(f)
	if err != nil {
		return nil, fmt.Errorf("model %s: %w", path, err)
	}
	return xplace.NewFieldPredictor(m), nil
}
