package main

import (
	"context"
	"fmt"
	"math"
	"slices"
	"strings"
	"time"

	"xplace"
	"xplace/internal/detail"
	"xplace/internal/kernel"
	"xplace/internal/legal"
	"xplace/internal/placer"
	"xplace/internal/router"
)

// The field predictor of gp-nn is part of the configuration, not of the
// input: it is trained in set-up from a fixed seed so that every run blends
// the same model and only the designs vary with --seed. (A model per seed
// moves the number of blended iterations, and with it the wall time, by
// ±30 % between runs.) The architecture is the issue's; the training set
// is cut to what set-up can afford three times per run.
const (
	fnoSeed    = 7
	fnoSamples = 8
	fnoRes     = 32
	fnoEpochs  = 6
)

var fnoConfig = xplace.ModelConfig{Width: 6, Modes: 4, Layers: 2, Seed: fnoSeed}

// opPrefixLayer groups engine op names (kernel.Stats.PerOp keys) by the
// module that launches them. An op whose prefix is missing here fails the
// traced run rather than vanishing into the host share.
var opPrefixLayer = map[string]string{
	"wl":         "wirelength",
	"density":    "field",
	"spectral":   "dct",
	"spectral2":  "dct",
	"spectral32": "dct",
	"poisson":    "dct",
	"optim":      "optim",
	"placer":     "placer",
	"nn":         "nn",
}

// layerOf maps an engine op name to its layer. The engine's "(host)"
// pseudo-op only carries arena checkouts, never compute time.
func layerOf(op string) (string, bool) {
	if op == kernel.HostOp {
		return "kernel", true
	}
	prefix, _, _ := strings.Cut(op, ".")
	l, ok := opPrefixLayer[prefix]
	return l, ok
}

// timedPredictor is the harness's span around the nn layer's public
// function: it forwards to the real predictor and records each call.
type timedPredictor struct {
	inner  xplace.FieldPredictor
	rec    *recorder
	op     string
	parent int
	calls  int
	total  time.Duration
}

func (p *timedPredictor) PredictField(density []float64, nx, ny int, exOut, eyOut []float64) {
	id := p.rec.begin("nn.predict", p.op, p.parent)
	t0 := time.Now()
	p.inner.PredictField(density, nx, ny, exOut, eyOut)
	p.total += time.Since(t0)
	p.calls++
	p.rec.end(id)
}

// inprocEnv is what one set-up of an in-process workload produces.
type inprocEnv struct {
	cfg     inprocConfig
	seed    int64 // the run seed
	designs []*xplace.Design
	seeds   []int64
	pred    xplace.FieldPredictor // nil unless cfg.nn
	sess    *xplace.Session

	probeBudget time.Duration // per-probe time budget of the traced run
}

// setupInproc generates the corpus from the run seed, trains the field
// predictor if the workload blends one, starts the engine and runs one
// discarded warm-up placement.
func setupInproc(cfg inprocConfig, wname string, seed int64) (*inprocEnv, error) {
	env := &inprocEnv{cfg: cfg, seed: seed}
	for i := 0; i < cfg.corpus; i++ {
		ds := deriveSeed(seed, wname+"/design", i)
		d, err := xplace.GenerateBenchmark(cfg.bench, cfg.scale, ds)
		if err != nil {
			return nil, err
		}
		env.designs = append(env.designs, d)
		env.seeds = append(env.seeds, ds)
	}
	if cfg.nn {
		m := xplace.NewModel(fnoConfig)
		m.Train(xplace.GenerateTrainingSamples(fnoSamples, fnoRes, fnoRes, fnoSeed),
			xplace.TrainOptions{Epochs: fnoEpochs, Seed: fnoSeed})
		env.pred = xplace.NewFieldPredictor(m)
	}
	env.sess = xplace.NewSession(
		xplace.WithEngineOptions(engineWorkers, launchOverhead),
		xplace.WithBackend(xplace.Float64Backend()))
	warm := env.options(0)
	warm.Sched.MaxIter = warmupIters
	if _, err := env.sess.Place(context.Background(), env.designs[0], warm); err != nil {
		env.close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return env, nil
}

func (e *inprocEnv) close() { e.sess.Close() }

// options are the placement options of corpus design i: the paper's full
// Xplace configuration with the backend pinned.
func (e *inprocEnv) options(i int) xplace.PlacementOptions {
	o := xplace.DefaultPlacement()
	o.Seed = e.seeds[i]
	o.GridSize = e.cfg.grid
	o.Backend = xplace.Float64Backend()
	o.Predictor = e.pred
	if e.cfg.maxIter > 0 {
		o.Sched.MaxIter = e.cfg.maxIter
	}
	return o
}

// opResult is what one operation reported to its caller.
type opResult struct {
	design int
	wall   time.Duration // whole operation as the caller saw it
	first  time.Duration // call to first progress snapshot
	gpWall time.Duration // GP stage
	iters  int
	launch int64
	gpHPWL float64
	hpwl   float64 // final HPWL of the operation (after detail for a flow)
	ovfl   float64
	x, y   []float64 // final positions (original cells)
	gpX    []float64 // flow-full: positions after GP, before legalization
	gpY    []float64

	// flow-full only.
	lgTime, dpTime, rtTime time.Duration
	hpwlLegal              float64
	dispAvg                float64
	violations             int
	ovfl5                  float64

	stats kernel.Stats // engine accounting of the GP stage

	// traced runs only.
	nnCalls int
	nnHost  time.Duration
	iterDur []time.Duration
	newDur  time.Duration
}

// check returns what is wrong with the operation's output, or "".
func (e *inprocEnv) check(r opResult) string {
	switch {
	case e.cfg.maxIter > 0 && r.iters != e.cfg.maxIter:
		return fmt.Sprintf("design %d: capped run ended at iteration %d, want %d", r.design, r.iters, e.cfg.maxIter)
	case e.cfg.maxIter == 0 && !(r.ovfl <= stopOverflow):
		return fmt.Sprintf("design %d: run ended at overflow %g > %g", r.design, r.ovfl, stopOverflow)
	case math.IsNaN(r.hpwl) || math.IsInf(r.hpwl, 0) || r.hpwl <= 0:
		return fmt.Sprintf("design %d: HPWL %g", r.design, r.hpwl)
	case e.cfg.flow && r.violations != 0:
		return fmt.Sprintf("design %d: %d legality violations after the flow", r.design, r.violations)
	}
	return ""
}

// runOp runs one operation through the public Session API, tracing off.
func (e *inprocEnv) runOp(ctx context.Context, i int) (opResult, error) {
	r := opResult{design: i}
	opts := e.options(i)
	start := time.Now()
	progress := func(xplace.Snapshot) {
		if r.first == 0 {
			r.first = time.Since(start)
		}
	}
	if e.cfg.flow {
		fr, err := e.sess.Flow(ctx, e.designs[i], xplace.FlowOptions{
			Placement: opts, Route: &xplace.RouteOptions{}, Progress: progress})
		r.wall = time.Since(start)
		if err != nil {
			return r, err
		}
		r.gpWall, r.iters, r.launch = fr.GPTime, fr.GP.Iterations, fr.GP.Stats.Launches
		r.gpHPWL, r.hpwl, r.ovfl = fr.HPWLGP, fr.HPWLFinal, fr.GP.Overflow
		r.violations, r.ovfl5 = fr.Violations, fr.Route.Top5Overflow
		r.x, r.y = fr.FinalX, fr.FinalY
		r.gpX, r.gpY = fr.GP.X, fr.GP.Y
		r.stats = fr.GP.Stats
		return r, nil
	}
	opts.Progress = progress
	res, err := e.sess.Place(ctx, e.designs[i], opts)
	r.wall = time.Since(start)
	if err != nil {
		return r, err
	}
	r.gpWall, r.iters, r.launch = res.WallTime, res.Iterations, res.Stats.Launches
	r.gpHPWL, r.hpwl, r.ovfl = res.HPWL, res.HPWL, res.Overflow
	r.x, r.y = res.X, res.Y
	r.stats = res.Stats
	return r, nil
}

// runTracedOp re-drives one operation from the harness, layer by layer,
// with a span around each call: placer.New, every Placer.RunIteration and,
// for a flow, legal.Tetris, detail.Run, legal.Check and router.Route.
func (e *inprocEnv) runTracedOp(ctx context.Context, i int, rec *recorder, opID string) (opResult, error) {
	r := opResult{design: i}
	d := e.designs[i]
	opts := e.options(i)
	eng := e.sess.Engine()
	root := rec.begin("op", opID, -1)
	defer rec.end(root)
	start := time.Now()

	var tp *timedPredictor
	if e.pred != nil {
		tp = &timedPredictor{inner: e.pred, rec: rec, op: opID}
		opts.Predictor = tp
	}
	sp := rec.begin("placer.new", opID, root)
	p, err := placer.New(d, eng, opts)
	rec.end(sp)
	r.newDur = time.Since(start)
	if err != nil {
		return r, err
	}
	defer p.Close()

	run := rec.begin("placer.run", opID, root)
	eng.Reset()
	gpStart := time.Now()
	for {
		// The placer's own stop test (sched.Done on the last overflow).
		if last, ok := p.Recorder().Last(); ok && p.Scheduler().Done(last.Overflow) {
			break
		}
		it := rec.begin("placer.iter", opID, run)
		if tp != nil {
			tp.parent = it
		}
		t0 := time.Now()
		err := p.RunIteration()
		r.iterDur = append(r.iterDur, time.Since(t0))
		rec.end(it)
		if err != nil {
			rec.end(run)
			return r, err
		}
		if r.first == 0 {
			r.first = time.Since(start)
		}
	}
	r.gpWall = time.Since(gpStart)
	r.stats = eng.Stats()
	rec.end(run)
	if tp != nil {
		r.nnCalls, r.nnHost = tp.calls, tp.total
	}
	// No iteration is left to run: this only collects positions and HPWL
	// (it resets the engine accounting, which is why stats were read first).
	res, err := p.RunContext(ctx)
	if err != nil {
		return r, err
	}
	r.iters, r.launch = res.Iterations, r.stats.Launches
	r.gpHPWL, r.hpwl, r.ovfl = res.HPWL, res.HPWL, res.Overflow
	r.x, r.y = res.X, res.Y

	if e.cfg.flow {
		r.gpX, r.gpY = res.X, res.Y
		sp = rec.begin("legal.tetris", opID, root)
		t0 := time.Now()
		lx, ly, err := legal.Tetris(d, res.X, res.Y)
		r.lgTime = time.Since(t0)
		rec.end(sp)
		if err != nil {
			return r, fmt.Errorf("legalization: %w", err)
		}
		r.hpwlLegal = d.HPWL(lx, ly)
		total, _ := legal.Displacement(d, res.X, res.Y, lx, ly)
		r.dispAvg = total / float64(len(d.MovableCells()))

		sp = rec.begin("detail.run", opID, root)
		t0 = time.Now()
		fx, fy := detail.Run(d, lx, ly, detail.Options{})
		r.dpTime = time.Since(t0)
		rec.end(sp)
		r.hpwl = d.HPWL(fx, fy)
		r.x, r.y = fx, fy

		sp = rec.begin("legal.check", opID, root)
		r.violations = len(legal.Check(d, fx, fy))
		rec.end(sp)

		sp = rec.begin("router.route", opID, root)
		t0 = time.Now()
		rt := router.Route(d, fx, fy, router.Options{})
		r.rtTime = time.Since(t0)
		rec.end(sp)
		r.ovfl5 = rt.Top5Overflow
	}
	r.wall = time.Since(start)
	return r, nil
}

// opLog collects the operations of one measured phase.
type opLog struct {
	ops      []opResult
	firstOf  map[int]opResult // each design's first repetition, which the later ones must equal
	failed   int
	problems []string
}

func (l *opLog) fail(msg string) {
	l.failed++
	if len(l.problems) < 8 {
		l.problems = append(l.problems, msg)
	}
}

// runRound places the first n designs of the corpus once. Every operation
// is checked; repetitions of one design must agree bit for bit on GP HPWL,
// iterations and launches.
func (e *inprocEnv) runRound(ctx context.Context, n int, log *opLog, rec *recorder, tag string) {
	if log.firstOf == nil {
		log.firstOf = map[int]opResult{}
	}
	for i := range e.designs[:n] {
		var r opResult
		var err error
		if rec != nil {
			r, err = e.runTracedOp(ctx, i, rec, fmt.Sprintf("%s.%d", tag, i))
		} else {
			r, err = e.runOp(ctx, i)
		}
		if err != nil {
			log.fail(fmt.Sprintf("design %d: %v", i, err))
			continue
		}
		if msg := e.check(r); msg != "" {
			log.fail(msg)
			continue
		}
		if f, seen := log.firstOf[i]; !seen {
			log.firstOf[i] = r
		} else if f.gpHPWL != r.gpHPWL || f.iters != r.iters || f.launch != r.launch {
			log.fail(fmt.Sprintf("design %d: repetition differs: hpwl %v/%v iters %d/%d launches %d/%d",
				i, f.gpHPWL, r.gpHPWL, f.iters, r.iters, f.launch, r.launch))
			continue
		}
		log.ops = append(log.ops, r)
	}
}

// rounds calls round (one pass over the corpus) until budget is spent and
// at least minRounds ran; a round that would end further past the budget
// than it started before it is not begun. Whole rounds give every design
// the same number of repetitions, a round apart, so that a stretch of
// interference cannot cover all repetitions of one design.
func rounds(budget time.Duration, minRounds int, round func(n int) error) error {
	start := time.Now()
	var last time.Duration
	for n := 0; n < minRounds || time.Since(start)+last/2 < budget; n++ {
		t0 := time.Now()
		if err := round(n); err != nil {
			return err
		}
		last = time.Since(t0)
	}
	return nil
}

// byDesign groups f over the successful operations by design index.
func (l *opLog) byDesign(f func(opResult) float64) [][]float64 {
	var out [][]float64
	for _, r := range l.ops {
		for len(out) <= r.design {
			out = append(out, nil)
		}
		out[r.design] = append(out[r.design], f(r))
	}
	return out
}

// perDesign returns f of the first successful operation of each design:
// quantities that depend on the input, not on the repetition.
func (l *opLog) perDesign(f func(opResult) float64) []float64 {
	var out []float64
	for _, g := range l.byDesign(f) {
		if len(g) > 0 {
			out = append(out, g[0])
		}
	}
	return out
}

// fastestPerDesign returns the smallest f over the repetitions of each
// design that was repeated.
func (l *opLog) fastestPerDesign(f func(opResult) float64) []float64 {
	var out []float64
	for _, g := range l.byDesign(f) {
		if len(g) > 1 {
			out = append(out, slices.Min(g))
		}
	}
	return out
}

func (l *opLog) each(f func(opResult) float64) []float64 {
	out := make([]float64, len(l.ops))
	for i, r := range l.ops {
		out[i] = f(r)
	}
	return out
}

// runInproc is the entry point of the five in-process workloads.
func runInproc(w workload, rc runConfig) (*runResult, error) {
	cfg := *w.inproc
	if rc.smoke {
		cfg.corpus, cfg.timed = 1, 1
		if cfg.scale > 0.02 {
			cfg.scale = 0.02 // 4k cells: still above the engine's parallel threshold
		}
		if cfg.maxIter == 0 || cfg.maxIter > 25 {
			cfg.maxIter = 25
		}
		if cfg.detailProbeScale > 0.004 {
			cfg.detailProbeScale = 0.004
		}
	}
	ctx := context.Background()
	res := newRunResult(w.name, rc)

	if !rc.trace {
		// Every round starts from its own timed set-up, so the set-up
		// repetitions are spread over the run like those of the operations.
		// The first round places the whole corpus, for the quantities that
		// depend only on the input; the later ones repeat its timed part.
		log := &opLog{}
		var setups []float64
		err := rounds(rc.seconds, 2, func(round int) error {
			t0 := time.Now()
			env, err := setupInproc(cfg, w.name, rc.seed)
			if err != nil {
				return fmt.Errorf("set-up: %w", err)
			}
			defer env.close()
			setups = append(setups, time.Since(t0).Seconds())
			n := cfg.timed
			if round == 0 {
				n = cfg.corpus
			}
			env.runRound(ctx, n, log, nil, "")
			return nil
		})
		if err != nil {
			return nil, err
		}
		res.absorb(log)
		res.ops = log.ops
		res.E2E["setup_s"] = summarizeFastest(setups)
		res.E2E["op_best_ms"] = summarize(log.fastestPerDesign(func(r opResult) float64 { return ms(r.wall) }))
		res.E2E["gp_best_ms"] = summarize(log.fastestPerDesign(func(r opResult) float64 { return ms(r.gpWall) }))
		res.E2E["gp_iters"] = summarize(log.perDesign(func(r opResult) float64 { return float64(r.iters) }))
		res.E2E["gp_launches"] = summarize(log.perDesign(func(r opResult) float64 { return float64(r.launch) }))
		res.E2E["hpwl"] = summarize(log.perDesign(func(r opResult) float64 { return r.hpwl }))
		return res, nil
	}

	// Traced run, all on one set-up: untraced and traced rounds in turn, so
	// that the overhead comparison sees the same stretches of interference
	// on both sides, then the probes.
	env, err := setupInproc(cfg, w.name, rc.seed)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer env.close()
	env.probeBudget = probeBudget
	if rc.smoke {
		env.probeBudget /= 15
	}
	rec := newRecorder()
	plain, traced := &opLog{}, &opLog{}
	_ = rounds(rc.seconds*6/10, 2, func(n int) error {
		env.runRound(ctx, cfg.timed, plain, nil, "")
		env.runRound(ctx, cfg.timed, traced, rec, fmt.Sprintf("%s#%d", w.name, n))
		return nil
	})
	res.absorb(plain)
	res.absorb(traced)
	if len(traced.ops) == 0 || len(plain.ops) == 0 {
		return res, nil
	}
	env.layerMetrics(res, traced, rec)
	wall := func(r opResult) float64 { return ms(r.wall) }
	res.Layer["bench.trace_overhead_share"] = median(traced.fastestPerDesign(wall))/median(plain.fastestPerDesign(wall)) - 1
	u := median(plain.each(wall))
	res.Layer["bench.op_p50_ms"] = u
	env.probes(res, traced.ops[0], u)
	res.Layer["proc.peak_rss_mb"] = peakRSSMB()
	res.rec = rec
	return res, nil
}

// layerMetrics turns the traced operations' engine accounting and spans
// into the per-layer numbers. Shares are per-op compute grouped by layer
// over the GP stage's wall time; with kernel.host_share they sum to 1.
func (e *inprocEnv) layerMetrics(res *runResult, log *opLog, rec *recorder) {
	samples := map[string][]float64{}
	add := func(name string, v float64) { samples[name] = append(samples[name], v) }
	for _, r := range log.ops {
		wall := r.gpWall.Seconds()
		byLayer := map[string]float64{}
		var compute float64
		for op, st := range r.stats.PerOp {
			l, ok := layerOf(op)
			if !ok {
				res.problem(fmt.Sprintf("engine op %q belongs to no layer", op))
				continue
			}
			byLayer[l] += st.Compute.Seconds()
			compute += st.Compute.Seconds()
		}
		host := (wall - compute) / wall
		sum := host
		for _, l := range []string{"wirelength", "field", "dct", "optim", "placer", "nn"} {
			sum += byLayer[l] / wall
		}
		if math.Abs(sum-1) > 0.01 {
			res.problem(fmt.Sprintf("layer shares + host share = %.4f, want 1 ± 0.01", sum))
		}
		add("wirelength.share", byLayer["wirelength"]/wall)
		add("field.share", byLayer["field"]/wall)
		add("dct.share", byLayer["dct"]/wall)
		add("optim.share", byLayer["optim"]/wall)
		add("placer.share", byLayer["placer"]/wall)
		add("nn.share", (byLayer["nn"]+r.nnHost.Seconds())/wall)
		add("nn.calls", float64(r.nnCalls))
		add("nn.host_s", r.nnHost.Seconds())
		add("kernel.host_share", host)
		add("kernel.compute_s", compute)
		add("kernel.sim_s", r.stats.Simulated.Seconds())
		add("kernel.launch_cost_share",
			float64(r.stats.Launches)*r.stats.Overhead.Seconds()/r.stats.Simulated.Seconds())
		add("kernel.syncs", float64(r.stats.Syncs))
		add("kernel.arena_peak_bytes", float64(r.stats.Arena.Peak))
		add("kernel.arena_misses", float64(r.stats.Arena.Misses))
		evals := r.stats.PerOp["density.gather_field"].Launches
		add("sched.density_evals", float64(evals))
		add("sched.density_skips", float64(int64(r.iters)-evals))
		add("placer.new_ms", ms(r.newDur))
		add("placer.first_progress_ms", ms(r.first))
		add("placer.gp_hpwl", r.gpHPWL)
		if e.cfg.flow {
			add("legal.tetris_ms", ms(r.lgTime))
			add("legal.displacement_avg", r.dispAvg)
			add("detail.run_s", r.dpTime.Seconds())
			add("detail.flow_share", r.dpTime.Seconds()/r.wall.Seconds())
			add("detail.hpwl_gain", (r.hpwlLegal-r.hpwl)/r.hpwlLegal)
			add("router.route_ms", ms(r.rtTime))
			add("router.ovfl5", r.ovfl5)
		}
	}
	for name, v := range samples {
		res.Layer[name] = median(v)
	}
	var iters []float64
	for _, d := range rec.durations("placer.iter") {
		iters = append(iters, ms(d))
	}
	res.Layer["placer.iter_p50_ms"] = percentile(iters, 50)
	res.Layer["placer.iter_p95_ms"] = percentile(iters, 95)
	if e.pred != nil {
		var fw []float64
		for _, d := range rec.durations("nn.predict") {
			fw = append(fw, ms(d))
		}
		res.Layer["nn.forward_ms"] = median(fw)
	}
}
