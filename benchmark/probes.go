package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"path/filepath"
	"sync"
	"time"

	"xplace"
	"xplace/internal/backend"
	"xplace/internal/dct"
	"xplace/internal/detail"
	"xplace/internal/field"
	"xplace/internal/geom"
	"xplace/internal/jobapi"
	"xplace/internal/jobstore"
	"xplace/internal/legal"
	"xplace/internal/optim"
	"xplace/internal/placer"
	"xplace/internal/serve"
	"xplace/internal/wirelength"
)

// A probe is the median of up to probeMaxCalls timed calls into one public
// function; slow calls stop after probeMinCalls once probeBudget is spent,
// so the whole probe pass stays within a few seconds.
const (
	probeMinCalls = 5
	probeMaxCalls = 30
	probeBudget   = 150 * time.Millisecond
)

func probe(budget time.Duration, fn func()) time.Duration {
	return medianDuration(timeCalls(probeMinCalls, probeMaxCalls, budget, fn))
}

// probeE is probe for a call that can fail; it returns the first error.
func probeE(budget time.Duration, fn func() error) (time.Duration, error) {
	var first error
	d := probe(budget, func() {
		if err := fn(); err != nil && first == nil {
			first = err
		}
	})
	return d, first
}

// probeGrid is the density grid the probes build their own field system
// on: the workload's, or for an automatic grid the placer's documented rule
// (sqrt of the augmented cell count rounded up to a power of two, at least
// 32).
func probeGrid(cfg inprocConfig, augCells int) int {
	if cfg.grid != 0 {
		return cfg.grid
	}
	m := 32
	for m < int(math.Sqrt(float64(augCells))) && m < 1024 {
		m <<= 1
	}
	return m
}

// probes times the public functions of the GP layers (and, for a flow, of
// legal/detail/router) on the workload's first design, at its initial and
// at its converged positions; a reported time is the mean of the two medians.
func (e *inprocEnv) probes(res *runResult, op opResult, plainWallMs float64) {
	L := res.Layer
	d := e.designs[op.design]
	eng := e.sess.Engine()
	opts := e.options(op.design)
	p, err := placer.New(d, eng, opts)
	if err != nil {
		res.problem(fmt.Sprintf("probes: %v", err))
		return
	}
	defer p.Close()
	aug := p.Design() // with fillers: what the GP kernels really iterate over
	n := d.NumCells()
	type pos struct{ x, y []float64 }
	gpX, gpY := op.x, op.y
	if e.cfg.flow {
		gpX, gpY = op.gpX, op.gpY
	}
	at := []pos{
		{aug.CellX, aug.CellY},
		{append(append([]float64(nil), gpX...), aug.CellX[n:]...), append(append([]float64(nil), gpY...), aug.CellY[n:]...)},
	}
	both := func(fn func(x, y []float64)) float64 {
		var sum float64
		for _, q := range at {
			sum += us(probe(e.probeBudget, func() { fn(q.x, q.y) }))
		}
		return sum / float64(len(at))
	}

	L["kernel.dispatch_us"] = us(probe(e.probeBudget, func() { eng.Launch("bench.empty", 1<<16, func(lo, hi int) {}) }))

	// wirelength
	wl := wirelength.NewOps(eng, aug, wirelength.WA)
	pinGX := make([]float64, aug.NumPins())
	pinGY := make([]float64, aug.NumPins())
	gamma := p.Scheduler().Gamma
	L["wirelength.fused_us"] = both(func(x, y []float64) { wl.Fused(x, y, gamma, pinGX, pinGY) })
	L["wirelength.hpwl_us"] = both(func(x, y []float64) { wl.HPWL(x, y) })
	L["wirelength.ns_per_pin"] = 1000 * L["wirelength.fused_us"] / float64(aug.NumPins())
	cellGX := make([]float64, aug.NumCells())
	cellGY := make([]float64, aug.NumCells())
	wl.PinToCell(pinGX, pinGY, cellGX, cellGY)
	wl.Release()

	// field and dct
	m := probeGrid(e.cfg, aug.NumCells())
	grid := geom.NewGrid(d.Region, m, m)
	sys := field.NewSystemOn(grid, eng, backend.Float64())
	defer sys.Release(eng)
	L["field.scatter_us"] = both(func(x, y []float64) {
		sys.ScatterDensity(eng, aug, x, y, field.MaskMovable|field.MaskFixed, sys.D, "density.cells")
	})
	L["field.overflow_us"] = us(probe(e.probeBudget, func() { sys.Overflow(eng, aug, sys.D, 1.0) }))
	sys.ScatterDensity(eng, aug, at[1].x, at[1].y, field.MaskAll, sys.Total, "density.total")
	L["dct.solve_us"] = us(probe(e.probeBudget, func() { sys.SolvePoisson(eng) }))
	L["dct.ns_per_bin"] = 1000 * L["dct.solve_us"] / float64(m*m)
	gx := make([]float64, aug.NumCells())
	gy := make([]float64, aug.NumCells())
	L["field.gather_us"] = both(func(x, y []float64) {
		sys.GatherField(eng, aug, x, y, field.MaskPlaceable, gx, gy)
	})
	plan := dct.NewPlan(m, m)
	coef := make([]float64, m*m)
	psi := make([]float64, m*m)
	ex := make([]float64, m*m)
	ey := make([]float64, m*m)
	freq := make([]float64, m)
	for u := range freq {
		freq[u] = math.Pi * float64(u) / float64(m)
	}
	L["dct.dct2_us"] = us(probe(e.probeBudget, func() { plan.DCT2(sys.Total, coef, eng) }))
	L["dct.field_eval_us"] = us(probe(e.probeBudget, func() { plan.EvalPotentialField(coef, freq, freq, psi, ex, ey, eng) }))
	plan.Release(eng)

	// backend: only where the spectral solve dominates is the float32 path's
	// keep-or-delete question decided.
	if e.cfg.f32Probe {
		sys32 := field.NewSystemOn(grid, eng, backend.Float32())
		copy(sys32.Total, sys.Total)
		f32 := us(probe(e.probeBudget, func() { sys32.SolvePoisson(eng) }))
		sys32.Release(eng)
		L["backend.f32_solve_ratio"] = f32 / L["dct.solve_us"]
		o32 := opts
		o32.Backend = xplace.Float32Backend()
		t0 := time.Now()
		if _, err := e.sess.Place(context.Background(), d, o32); err != nil {
			res.problem(fmt.Sprintf("float32 run: %v", err))
		} else {
			L["backend.f32_gp_ratio"] = ms(time.Since(t0)) / plainWallMs
		}
	}

	// optim: Nesterov steps along the wirelength gradient.
	nes := optim.NewNesterov(append([]float64(nil), aug.CellX...), append([]float64(nil), aug.CellY...),
		optim.NewBounds(aug), math.Sqrt(grid.Dx*grid.Dy))
	L["optim.step_us"] = us(probe(e.probeBudget, func() { nes.Step(eng, cellGX, cellGY) }))

	// placer: checkpoint encoding of a mid-trajectory state.
	if _, err := p.RunIterations(5); err != nil {
		res.problem(fmt.Sprintf("probes: %v", err))
		return
	}
	enc, err := probeE(e.probeBudget, func() error { _, err := json.Marshal(p.Checkpoint()); return err })
	if err != nil {
		res.problem(fmt.Sprintf("probes: checkpoint encoding: %v", err))
	}
	L["placer.checkpoint_encode_ms"] = ms(enc)

	if e.cfg.tracerProbe {
		e.tracerOverhead(res, op.design)
	}
	if e.cfg.flow {
		e.flowProbes(res, d, gpX, gpY)
	}
}

// tracerOverhead measures the in-program tracer (xplace.WithTracer): the
// same placement with and without it, interleaved, fastest of each side.
func (e *inprocEnv) tracerOverhead(res *runResult, i int) {
	ctx := context.Background()
	traced := xplace.NewSession(xplace.WithEngine(e.sess.Engine()),
		xplace.WithBackend(xplace.Float64Backend()), xplace.WithTracer(xplace.NewTracer()))
	defer traced.Close()
	fastest := map[*xplace.Session]time.Duration{}
	for k := 0; k < 5; k++ {
		for _, s := range []*xplace.Session{e.sess, traced} {
			t0 := time.Now()
			if _, err := s.Place(ctx, e.designs[i], e.options(i)); err != nil {
				res.problem(fmt.Sprintf("tracer overhead: %v", err))
				return
			}
			if d := time.Since(t0); k == 0 || d < fastest[s] {
				fastest[s] = d
			}
		}
	}
	res.Layer["obs.trace_overhead_share"] = ms(fastest[traced])/ms(fastest[e.sess]) - 1
}

// flowProbes times the legalizer the flow does not use from one GP result
// and counts how many distinct answers detailed placement gives to one
// question.
func (e *inprocEnv) flowProbes(res *runResult, d *xplace.Design, gpX, gpY []float64) {
	L := res.Layer
	abacus, err := probeE(e.probeBudget, func() error { _, _, err := legal.Abacus(d, gpX, gpY); return err })
	if err != nil {
		res.problem(fmt.Sprintf("probes: abacus: %v", err))
	}
	L["legal.abacus_ms"] = ms(abacus)
	if e.cfg.detailProbeScale > 0 {
		n, err := e.detailDistinct(3)
		if err != nil {
			res.problem(fmt.Sprintf("probes: detail.hpwl_distinct: %v", err))
		}
		L["detail.hpwl_distinct"] = float64(n)
	}
}

// detailDistinct counts the distinct final HPWLs of `calls` identical
// detail.Run calls. detail.Run ranges over a map of footprint groups, so
// identical calls can return different placements; a fix moves the count
// to 1. It is taken on a converged, legalized placement of the probe's own
// design (see inprocConfig.detailProbeScale).
func (e *inprocEnv) detailDistinct(calls int) (int, error) {
	ds := deriveSeed(e.seed, "flow-full/detail-probe", 0)
	d, err := xplace.GenerateBenchmark("adaptec1", e.cfg.detailProbeScale, ds)
	if err != nil {
		return 0, err
	}
	o := xplace.DefaultPlacement()
	o.Seed = ds
	o.Backend = xplace.Float64Backend()
	gp, err := e.sess.Place(context.Background(), d, o)
	if err != nil {
		return 0, err
	}
	lx, ly, err := legal.Tetris(d, gp.X, gp.Y)
	if err != nil {
		return 0, err
	}
	distinct := map[float64]bool{}
	for k := 0; k < calls; k++ {
		fx, fy := detail.Run(d, lx, ly, detail.Options{})
		distinct[d.HPWL(fx, fy)] = true
	}
	return len(distinct), nil
}

// probes times the serving layers' public functions beside the fleet.
func (f *fleet) probes(res *runResult, rc runConfig) error {
	L := res.Layer
	ctx := context.Background()
	seedAt := func(i int) int64 { return deriveSeed(rc.seed, "serve/probe", i) }
	timed := func(name string, scale func(time.Duration) float64, fn func() error) error {
		d, err := probeE(probeBudget, fn)
		L[name] = scale(d)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		return nil
	}
	k := 0
	if err := timed("jobapi.tospec_ms", ms, func() error {
		k++
		req := jobapi.Request{Bench: serveBench, Scale: serveScale, Seed: seedAt(k), MaxIter: serveMaxIter}
		_, err := req.ToSpec()
		return err
	}); err != nil {
		return err
	}

	// jobstore
	st, err := jobstore.Open(filepath.Join(f.dir, "probe-store"))
	if err != nil {
		return err
	}
	body := jobBody(seedAt(0))
	var id int64
	if err := timed("jobstore.append_us", us, func() error {
		id++
		return st.AppendSubmit(id, serveBench, body, "probe")
	}); err != nil {
		return err
	}
	req := jobapi.Request{Bench: serveBench, Scale: serveScale, Seed: seedAt(0), MaxIter: serveMaxIter}
	spec, err := req.ToSpec()
	if err != nil {
		return err
	}
	eng := xplace.NewEngine(1, -1)
	defer eng.Close()
	p, err := placer.New(spec.Design, eng, spec.Options)
	if err != nil {
		return err
	}
	result, err := p.RunIterations(25)
	if err != nil {
		return err
	}
	ckpt, err := json.Marshal(p.Checkpoint())
	p.Close()
	if err != nil {
		return err
	}
	if err := timed("jobstore.checkpoint_ms", ms, func() error { return st.WriteCheckpoint(1, ckpt) }); err != nil {
		return err
	}
	cached := &jobstore.CachedResult{Key: spec.Key, Iterations: result.Iterations, HPWL: result.HPWL,
		Overflow: result.Overflow, X: result.X, Y: result.Y}
	if err := timed("jobstore.put_result_ms", ms, func() error { return st.PutResult(cached) }); err != nil {
		return err
	}
	if err := timed("jobstore.get_result_us", us, func() error {
		if _, ok := st.GetResult(spec.Key); !ok {
			return fmt.Errorf("cached result missing")
		}
		return nil
	}); err != nil {
		return err
	}
	if err := st.Close(); err != nil {
		return err
	}
	// Recovery: replay of a WAL of walRecords records.
	walDir := filepath.Join(f.dir, "probe-wal")
	if st, err = jobstore.Open(walDir); err != nil {
		return err
	}
	for j := int64(1); j <= walRecords/3; j++ {
		if err := st.AppendSubmit(j, serveBench, body, fmt.Sprint("k", j)); err == nil {
			err = st.AppendBegin(j)
			if err == nil {
				err = st.AppendFinish(j, "succeeded", "", serveMaxIter, 1, 0.5, false)
			}
		}
		if err != nil {
			return err
		}
	}
	if err := st.Close(); err != nil {
		return err
	}
	if err := timed("jobstore.recover_ms", ms, func() error {
		s, err := jobstore.Open(walDir)
		if err != nil {
			return err
		}
		defer s.Close()
		_, err = s.Recover()
		return err
	}); err != nil {
		return err
	}

	// serve: saturated throughput of an in-process scheduler.
	specs := make([]serve.Spec, satJobs)
	for i := range specs {
		r := jobapi.Request{Bench: serveBench, Scale: serveScale, Seed: seedAt(100 + i), MaxIter: serveMaxIter}
		if specs[i], err = r.ToSpec(); err != nil {
			return err
		}
	}
	sched, err := serve.New(serve.Options{Engines: 2, EngineWorkers: 1, QueueCap: satJobs})
	if err != nil {
		return err
	}
	t0 := time.Now()
	if _, err := runAll(ctx, sched, specs); err != nil {
		return err
	}
	L["serve.sat_jobs_per_s"] = satJobs / time.Since(t0).Seconds()
	if err := sched.Shutdown(ctx); err != nil {
		return err
	}

	// serve: one versus two concurrent model jobs through the shared
	// inference path (the number the nnBatcher keep-or-delete decision reads).
	model := xplace.NewModel(fnoConfig)
	model.Train(xplace.GenerateTrainingSamples(fnoSamples, fnoRes, fnoRes, fnoSeed),
		xplace.TrainOptions{Epochs: fnoEpochs, Seed: fnoSeed})
	var art bytes.Buffer
	if err := model.Save(&art); err != nil {
		return err
	}
	reg := serve.NewModelRegistry()
	if err := reg.Load("fno", &art); err != nil {
		return err
	}
	sched, err = serve.New(serve.Options{Engines: 2, EngineWorkers: 1, Models: reg})
	if err != nil {
		return err
	}
	nnSpec := func(i int) (serve.Spec, error) {
		r := jobapi.Request{Bench: serveBench, Scale: serveScale, Seed: seedAt(200 + i), MaxIter: nnJobIters, Model: "fno"}
		return r.ToSpec()
	}
	var solo, pair []float64
	for rep := 0; rep < 3; rep++ {
		for _, width := range []int{1, 2} {
			batch := make([]serve.Spec, width)
			for i := range batch {
				if batch[i], err = nnSpec(10*rep + 2*width + i); err != nil {
					return err
				}
			}
			times, err := runAll(ctx, sched, batch)
			if err != nil {
				return err
			}
			if width == 1 {
				solo = append(solo, times...)
			} else {
				pair = append(pair, times...)
			}
		}
	}
	L["serve.nn_solo_job_ms"] = median(solo)
	L["serve.nn_pair_job_ms"] = median(pair)
	if err := sched.Shutdown(ctx); err != nil {
		return err
	}

	// gateway: the same sequential jobs through the gateway and straight
	// to one worker; the difference of the medians is what the hop costs.
	var via, direct []float64
	for i := 0; i < overheadJobs; i++ {
		for b, base := range []string{f.srv.URL, f.nodes[0]} {
			o := runJob(f.client, base, jobBody(seedAt(300+2*i+b)), time.Now(), nil, "")
			if o.err != nil || o.status.State != "succeeded" {
				return fmt.Errorf("gateway overhead probe: state %q: %v", o.status.State, o.err)
			}
			if b == 0 {
				via = append(via, ms(o.total))
			} else {
				direct = append(direct, ms(o.total))
			}
		}
	}
	L["gateway.overhead_p50_ms"] = median(via) - median(direct)
	return nil
}

const (
	walRecords   = 999 // jobstore.recover_ms replays this many WAL records
	satJobs      = 16  // queued gp-small jobs of serve.sat_jobs_per_s
	nnJobIters   = 40  // iteration cap of the serve.nn_* model jobs
	overheadJobs = 8   // sequential jobs per side of gateway.overhead_p50_ms
)

// runAll submits the specs together and waits for all of them; it returns
// each job's submit-to-finish time in ms.
func runAll(ctx context.Context, s *serve.Scheduler, specs []serve.Spec) ([]float64, error) {
	times := make([]float64, len(specs))
	errs := make([]error, len(specs))
	var wg sync.WaitGroup
	for i, spec := range specs {
		j, err := s.Submit(spec)
		if err != nil {
			return nil, err
		}
		wg.Add(1)
		go func(i int, j *serve.Job) {
			defer wg.Done()
			if _, err := j.Wait(ctx); err != nil {
				errs[i] = err
				return
			}
			st := j.Status()
			times[i] = ms(st.Finished.Sub(st.Submitted))
		}(i, j)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return times, nil
}
