// Package placer is the paper's primary contribution: the Xplace global
// placement core engine (Figure 1). It wires the gradient engine
// (wirelength + electrostatic density operators), the optimizer, the
// evaluator/recorder and the scheduler into the GP loop, with every
// operator-level optimization of §3.1 individually toggleable:
//
//   - OperatorReduction (OR):   hand-derived gradients on the fast path vs
//     the autograd-driven baseline loop, in-place updates, deferred syncs.
//   - OperatorCombination (OC): WA wirelength + WA gradient + HPWL fused
//     into one kernel.
//   - OperatorExtraction (OE):  cell density map computed once and reused
//     for the total map and the overflow ratio.
//   - OperatorSkipping (OS):    early-stage density gradient reuse.
//
// Mode selects between the Xplace fast path and a DREAMPlace-style
// baseline that builds the loss with the mini autograd library and calls
// Backward every iteration — the comparator of Tables 2-4.
package placer

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"

	"xplace/internal/backend"
	"xplace/internal/field"
	"xplace/internal/geom"
	"xplace/internal/kernel"
	"xplace/internal/netlist"
	"xplace/internal/obs"
	"xplace/internal/optim"
	"xplace/internal/sched"
	"xplace/internal/wirelength"
)

// Mode selects the gradient-engine implementation.
type Mode int

const (
	// ModeXplace is the paper's fast path: numerical gradients, fused
	// operators, no autograd.
	ModeXplace Mode = iota
	// ModeBaseline is the DREAMPlace-style comparator: the loss is built
	// from autograd operators and differentiated by Backward each
	// iteration.
	ModeBaseline
)

func (m Mode) String() string {
	if m == ModeBaseline {
		return "baseline"
	}
	return "xplace"
}

// FieldPredictor is the neural extension hook (§3.3): given the total
// density map it predicts the electric field. The placer blends the
// prediction with the numerical field by sigma(omega) (Eq. 14).
//
// A predictor may also implement CheckGrid(nx, ny int) error: New then
// asks it whether it can run on the placement grid and fails if not.
type FieldPredictor interface {
	PredictField(density []float64, nx, ny int, exOut, eyOut []float64)
}

// WirelengthModel selects the smoothed-wirelength gradient function —
// the swappable gradient-engine module of Figure 1.
type WirelengthModel int

const (
	// WLWeightedAverage is the WA model of Eq. 4/6 (the paper's choice).
	WLWeightedAverage WirelengthModel = iota
	// WLLogSumExp is the classic LSE model (NTUPlace3 / original ePlace).
	WLLogSumExp
)

// OptimizerKind selects the optimization module.
type OptimizerKind int

const (
	// OptNesterov is the ePlace Nesterov method (default).
	OptNesterov OptimizerKind = iota
	// OptAdam is plain Adam.
	OptAdam
)

// Options configures a Placer. The zero value (plus defaults) runs the
// full Xplace configuration.
type Options struct {
	Mode Mode
	// Strategy selects the global-placement algorithm: the default
	// Nesterov electrostatic flow, or the LB/UB alternation engine
	// (StrategyLBUB) used as quality oracle, draft tier and divergence
	// fallback. Mode and the operator toggles below only apply to the
	// gradient flow.
	Strategy Strategy
	// Effort tunes the LB/UB strategy's parameter preset (1 = fastest
	// draft, 9 = highest quality, 0 = default). See LBUBEffort. Ignored
	// by StrategyNesterov.
	Effort int
	// Operator-level optimization toggles (§3.1). All default to on for
	// ModeXplace via Defaults; ModeBaseline ignores them (it is the
	// everything-off comparator).
	OperatorCombination bool
	OperatorExtraction  bool
	OperatorReduction   bool
	OperatorSkipping    bool

	// GridSize is the density grid dimension M (power of two). 0 picks
	// automatically from the cell count.
	GridSize int
	// Backend selects the compute backend of the density system (element
	// type + kernel bodies). nil resolves through backend.Default(), i.e.
	// the XPLACE_BACKEND environment variable, falling back to the
	// bit-exact float64 reference. Deterministic harnesses should pin it
	// explicitly.
	Backend backend.Backend
	// TargetDensity is the bin density constraint D_t (default 1.0).
	TargetDensity float64
	// Seed drives the random initial placement spread.
	Seed int64
	// Optimizer selects the optimization module.
	Optimizer OptimizerKind
	// Wirelength selects the smoothed wirelength model (default WA).
	Wirelength WirelengthModel
	// AdamLR is the Adam learning rate when Optimizer == OptAdam
	// (default: one bin dimension).
	AdamLR float64
	// Sched configures parameter scheduling; Sched.StageAware and
	// Sched.SkipEnabled are overwritten from the toggles above.
	Sched sched.Options
	// Predictor, when non-nil, enables the Xplace-NN extension.
	Predictor FieldPredictor
	// ExtraGradient, when non-nil, is called after the numerical gradient
	// is assembled and may add a user-defined term (the Figure 2(b)
	// extension path). Arguments are the lookahead positions and the
	// gradient accumulators, indexed by cell of the augmented design.
	ExtraGradient func(iter int, x, y, gx, gy []float64)
	// Progress, when non-nil, receives a Snapshot after every completed GP
	// iteration (the job-runtime streaming hook). It is invoked from the
	// placement loop's goroutine; keep it cheap and do not call back into
	// the placer from it.
	Progress func(Snapshot)
	// Resume, when non-nil, restores a mid-trajectory checkpoint into the
	// freshly built placer: the run continues from the checkpointed
	// iteration bit-identically to an uninterrupted run, provided the
	// design, options and engine worker count match the checkpointing run
	// (worker count fixes the kernel chunk boundaries and therefore the
	// floating-point summation order).
	Resume *Checkpoint
	// CheckpointEvery, with the Checkpoint hook, makes the placer emit a
	// durable resume point every N completed iterations (0 disables).
	CheckpointEvery int
	// Checkpoint receives the periodic checkpoints (the durable-job hook).
	// Like Progress it runs on the placement loop's goroutine at an
	// iteration boundary; the passed Checkpoint owns its memory and may be
	// serialized asynchronously. Building a checkpoint copies the
	// optimizer state, so this path is NOT allocation-free — leave it
	// disabled for timing runs.
	Checkpoint func(*Checkpoint)
	// Tracer, when non-nil, records operator-group spans and per-iteration
	// counter tracks (omega, lambda, gamma, overflow, HPWL). Attach the
	// same tracer to the engine (Engine.SetTracer) to capture individual
	// kernel launches on the same timeline.
	Tracer *obs.Tracer
	// Metrics, when non-nil, receives the paper-specific series: OC fused
	// launch savings, OE map reuses, OS skips, the §3.2 schedule gauges and
	// a per-iteration wall-time histogram. The instrument path is
	// all-atomics, so a metrics-enabled GP iteration stays allocation-free.
	Metrics *obs.Registry
}

// Snapshot is the per-iteration progress record handed to
// Options.Progress: the host-visible scalars of the iteration that just
// finished plus the §3.2 placement-stage classification.
type Snapshot struct {
	// Iter counts completed GP iterations, so it is 1-based: the snapshot
	// delivered after the first iteration has Iter == 1, and the last
	// snapshot of a run (completed, cancelled or timed out) has
	// Iter == Result.Iterations.
	Iter     int
	HPWL     float64
	WA       float64
	Overflow float64
	Gamma    float64
	Lambda   float64
	Omega    float64
	Stage    string // "early" | "intermediate" | "final" (§3.2)
	WallTime time.Duration
	SimTime  time.Duration
}

// Defaults returns the paper's full Xplace configuration.
func Defaults() Options {
	return Options{
		Mode:                ModeXplace,
		OperatorCombination: true,
		OperatorExtraction:  true,
		OperatorReduction:   true,
		OperatorSkipping:    true,
		TargetDensity:       1.0,
		Sched:               sched.Options{StageAware: true},
	}
}

// BaselineDefaults returns the DREAMPlace-style comparator configuration.
func BaselineDefaults() Options {
	o := Defaults()
	o.Mode = ModeBaseline
	o.OperatorCombination = false
	o.OperatorExtraction = false
	o.OperatorReduction = false
	o.OperatorSkipping = false
	o.Sched.StageAware = false
	return o
}

// Result is the outcome of a global placement run. X and Y are cell-center
// coordinates indexed by the ORIGINAL design's cell ids (fillers are
// stripped).
type Result struct {
	X, Y       []float64
	HPWL       float64
	Overflow   float64
	Iterations int
	WallTime   time.Duration
	SimTime    time.Duration // wall compute + simulated kernel-launch cost
	Stats      kernel.Stats
	Recorder   *Recorder
}

// Placer runs global placement for one design on one engine.
type Placer struct {
	opts  Options
	eng   *kernel.Engine
	d     *netlist.Design // the caller's cells followed by the fillers
	cells int             // the caller's cell count: results cut here
	sys   *field.System
	pre   *optim.Preconditioner
	schd  *sched.Scheduler
	opt   optim.Optimizer
	rec   *Recorder
	wl    *wirelength.Ops
	lbub  *lbubEngine     // non-nil iff Options.Strategy == StrategyLBUB
	ctx   context.Context // active run's context; Background outside a run

	// Observability instruments (nil-safe: a disabled tracer/registry makes
	// every use a nil-check no-op).
	tracer       *obs.Tracer
	instrumented bool // any tracer or metrics attached
	mIters       *obs.Counter
	mOCSaved     *obs.Counter
	mOEReuse     *obs.Counter
	mOSSkips     *obs.Counter
	mNNBlend     *obs.Counter
	gOmega       *obs.Gauge
	gLambda      *obs.Gauge
	gGamma       *obs.Gauge
	gOverflow    *obs.Gauge
	gNNSigma     *obs.Gauge
	gNNResidual  *obs.Gauge
	hIter        *obs.Histogram

	// Gradient buffers (cell-indexed over the augmented design).
	pinGX, pinGY []float64
	wlGX, wlGY   []float64
	dGX, dGY     []float64
	gX, gY       []float64
	exBlend      []float64 // NN-blended field scratch
	eyBlend      []float64
	agGX, agGY   []float64 // autograd backward scratch (lazy)
	lastOverflow float64
	lastEnergy   float64
	lastR        float64
	lambdaInit   bool
	iter         int

	// Persistent kernel bodies with staged per-iteration parameters so the
	// steady-state GP loop is allocation-free (per-call closures would
	// heap-allocate every iteration).
	l1PA, l1PB             []float64 // per-chunk partials of l1Norms and assembleBody
	l1AX, l1AY, l1BX, l1BY []float64
	l1Body                 func(w, lo, hi int)
	curLambda              float64
	combineBody            func(lo, hi int)
	assembleBody           func(w, lo, hi int) // the OC gradient assembly, cell-major
	stepDists              *optim.Nesterov     // non-nil while assembleBody fills its steplength partials
	curSigma               float64
	blendBody              func(lo, hi int)

	// Deferred-record state: the one record closure is built once and the
	// pending values staged per iteration (§3.1.3 sync reordering without a
	// per-iteration closure allocation).
	pendingRec  Record
	pendingWall time.Time
	pendingSim  time.Duration
	recordFn    func()
}

// New prepares a placer: its one design (d.WithFillers: d's cells, then the
// fillers, on d's own net and pin tables; d is never written), the
// electrostatic system, preconditioner, scheduler and optimizer.
func New(d *netlist.Design, e *kernel.Engine, opts Options) (*Placer, error) {
	if !d.Finished() {
		return nil, errors.New("placer: design must be finished")
	}
	if opts.TargetDensity <= 0 {
		opts.TargetDensity = 1.0
	}
	if opts.Strategy == StrategyLBUB {
		return newLBUBPlacer(d, e, opts)
	}
	if opts.Mode == ModeBaseline {
		// The baseline is the everything-off configuration by definition.
		opts.OperatorCombination = false
		opts.OperatorExtraction = false
		opts.OperatorReduction = false
		opts.OperatorSkipping = false
		opts.Sched.StageAware = false
	}
	opts.Sched.SkipEnabled = opts.OperatorSkipping

	aug := d.WithFillers(opts.TargetDensity)

	m := opts.GridSize
	if m == 0 {
		m = autoGridSize(aug.NumCells())
	}
	if m&(m-1) != 0 || m <= 0 {
		return nil, fmt.Errorf("placer: grid size %d must be a power of two", m)
	}
	// A predictor that knows which grids it can run on (an FNO keeping k
	// modes needs 2k bins per axis) is asked now, so that the job fails
	// here and not with a panic inside its first blended iteration.
	if c, ok := opts.Predictor.(interface{ CheckGrid(nx, ny int) error }); ok {
		if err := c.CheckGrid(m, m); err != nil {
			return nil, fmt.Errorf("placer: field predictor: %w", err)
		}
	}
	be := backend.Resolve(opts.Backend)
	opts.Backend = be
	grid := geom.NewGrid(d.Region, m, m)
	sys := field.NewSystemOn(grid, e, be)
	pre := optim.NewPreconditioner(aug)
	binSize := math.Sqrt(grid.Dx * grid.Dy)
	// The gamma schedule is calibrated in "reference bin" units: the die
	// split 512 ways, the grid regime the ePlace/DREAMPlace constants were
	// tuned for. Using the actual (possibly much coarser) bin size would
	// make gamma comparable to the die and collapse the design.
	gammaRef := math.Sqrt(d.Region.W()*d.Region.H()) / 512
	schd := sched.New(opts.Sched, gammaRef, pre.Omega)

	p := &Placer{
		opts: opts, eng: e, d: aug, cells: d.NumCells(),
		sys: sys, pre: pre, schd: schd,
		rec: &Recorder{},
		ctx: context.Background(),
	}
	n := aug.NumCells()
	p.pinGX = make([]float64, aug.NumPins())
	p.pinGY = make([]float64, aug.NumPins())
	p.wlGX = make([]float64, n)
	p.wlGY = make([]float64, n)
	p.dGX = make([]float64, n)
	p.dGY = make([]float64, n)
	p.gX = make([]float64, n)
	p.gY = make([]float64, n)
	if opts.Predictor != nil {
		p.exBlend = make([]float64, m*m)
		p.eyBlend = make([]float64, m*m)
	}

	x0, y0 := initialPositions(aug, opts.Seed)
	bounds := optim.NewBounds(aug)
	switch opts.Optimizer {
	case OptAdam:
		lr := opts.AdamLR
		if lr == 0 {
			lr = binSize
		}
		p.opt = optim.NewAdam(x0, y0, bounds, lr)
	default:
		p.opt = optim.NewNesterov(x0, y0, bounds, binSize)
	}

	wlModel := wirelength.WA
	if opts.Wirelength == WLLogSumExp {
		wlModel = wirelength.LSE
	}
	p.wl = wirelength.NewOps(e, aug, wlModel)
	p.buildBodies()
	p.initInstruments()
	if opts.Resume != nil {
		if err := p.restore(opts.Resume); err != nil {
			p.Close()
			return nil, err
		}
	}
	return p, nil
}

// initInstruments resolves the observability hooks. With a nil registry
// every constructor returns a nil instrument, and nil instruments no-op,
// so the disabled path costs one nil check per site (§3.1 metric names are
// documented in DESIGN.md).
func (p *Placer) initInstruments() {
	p.tracer = p.opts.Tracer
	m := p.opts.Metrics
	p.instrumented = p.tracer != nil || m != nil
	p.mIters = m.Counter("xplace_gp_iterations_total", "completed GP iterations")
	p.mOCSaved = m.Counter("xplace_oc_fused_launches_saved_total",
		"kernel launches avoided by operator combination (§3.1.1)")
	p.mOEReuse = m.Counter("xplace_oe_map_reuses_total",
		"density-map reuses from operator extraction (§3.1.2)")
	p.mOSSkips = m.Counter("xplace_os_density_skips_total",
		"density evaluations skipped by operator skipping (§3.1.4)")
	p.gOmega = m.Gauge("xplace_stage_omega", "§3.2 placement-stage progress omega")
	p.gLambda = m.Gauge("xplace_lambda", "current density weight lambda")
	p.gGamma = m.Gauge("xplace_gamma", "current wirelength smoothing gamma")
	p.gOverflow = m.Gauge("xplace_overflow", "current density overflow ratio")
	p.mNNBlend = m.Counter("xplace_nn_blend_iterations_total",
		"GP iterations that blended the neural field prediction (§3.3)")
	p.gNNSigma = m.Gauge("xplace_nn_sigma", "Eq. 14 neural blend weight sigma(omega)")
	p.gNNResidual = m.Gauge("xplace_nn_residual",
		"relative L2 residual of the predicted field vs the numerical solve")
	p.hIter = m.Histogram("xplace_iteration_seconds", "GP iteration wall time", nil)
}

// groupSpan is the staged start of one operator-group trace span; it is a
// plain value so beginning/ending a span never allocates.
type groupSpan struct {
	start time.Time
	sim   time.Duration
}

// beginGroup samples the wall and simulated clocks if tracing is on.
func (p *Placer) beginGroup() groupSpan {
	if p.tracer == nil {
		return groupSpan{}
	}
	return groupSpan{start: time.Now(), sim: p.eng.SimulatedTime()}
}

// endGroup records the operator-group span started by beginGroup.
func (p *Placer) endGroup(g groupSpan, name string) {
	if p.tracer == nil {
		return
	}
	p.tracer.Span(name, obs.CatGroup, g.start, time.Since(g.start),
		g.sim, p.eng.SimulatedTime()-g.sim, p.iter)
}

// observeIteration publishes the just-finished iteration's scalars to the
// metrics registry and the tracer's counter tracks. All instrument writes
// are atomics, so this path is allocation-free.
func (p *Placer) observeIteration() {
	rec, ok := p.rec.Last()
	if !ok {
		return
	}
	p.mIters.Inc()
	p.gOmega.Set(rec.Omega)
	p.gLambda.Set(rec.Lambda)
	p.gGamma.Set(rec.Gamma)
	p.gOverflow.Set(rec.Overflow)
	p.hIter.Observe(rec.WallTime.Seconds())
	if p.tracer != nil {
		now := time.Now()
		p.tracer.Counter("omega", now, rec.Iter, rec.Omega)
		p.tracer.Counter("lambda", now, rec.Iter, rec.Lambda)
		p.tracer.Counter("gamma", now, rec.Iter, rec.Gamma)
		p.tracer.Counter("overflow", now, rec.Iter, rec.Overflow)
		p.tracer.Counter("hpwl", now, rec.Iter, rec.HPWL)
	}
}

// buildBodies constructs the persistent per-iteration kernel bodies once.
func (p *Placer) buildBodies() {
	chunks := p.eng.Chunks(p.d.NumCells())
	p.l1PA, p.l1PB = make([]float64, chunks), make([]float64, chunks)
	p.l1Body = func(w, lo, hi int) {
		ax, ay, bx, by := p.l1AX, p.l1AY, p.l1BX, p.l1BY
		var sa, sb float64
		for i := lo; i < hi; i++ {
			sa += math.Abs(ax[i]) + math.Abs(ay[i])
			sb += math.Abs(bx[i]) + math.Abs(by[i])
		}
		p.l1PA[w] = sa
		p.l1PB[w] = sb
	}
	p.combineBody = func(lo, hi int) {
		lambda := p.curLambda
		for c := lo; c < hi; c++ {
			p.gX[c] = p.wlGX[c] + lambda*p.dGX[c]
			p.gY[c] = p.wlGY[c] + lambda*p.dGY[c]
		}
	}
	// Per cell: sum its pins into the wirelength gradient (PinToCell's
	// body), add both gradients to the chunk's l1 partials (l1Body's),
	// combine them (combineBody's); then precondition the chunk's range,
	// and, when staged, write the optimizer's steplength partials of it
	// (optim.dist's body). Every step reads only the cells it writes, so
	// the operators need no barrier between them, and the chunks are
	// l1Norms' and optim.dist's chunks.
	d := p.d
	p.assembleBody = func(w, lo, hi int) {
		lambda := p.curLambda
		var sa, sb float64
		for c := lo; c < hi; c++ {
			var gx, gy float64
			for _, pin := range d.CellPins[d.CellPinStart[c]:d.CellPinStart[c+1]] {
				gx += p.pinGX[pin]
				gy += p.pinGY[pin]
			}
			p.wlGX[c], p.wlGY[c] = gx, gy
			sa += math.Abs(gx) + math.Abs(gy)
			sb += math.Abs(p.dGX[c]) + math.Abs(p.dGY[c])
			p.gX[c] = gx + lambda*p.dGX[c]
			p.gY[c] = gy + lambda*p.dGY[c]
		}
		p.l1PA[w], p.l1PB[w] = sa, sb
		p.pre.ApplyRange(lambda, p.gX, p.gY, lo, hi)
		if p.stepDists != nil {
			p.stepDists.DistRange(w, p.gX, p.gY, lo, hi)
		}
	}
	p.blendBody = func(lo, hi int) {
		sigma := p.curSigma
		for i := lo; i < hi; i++ {
			p.sys.Ex[i] = (1-sigma)*p.sys.Ex[i] + sigma*p.exBlend[i]
			p.sys.Ey[i] = (1-sigma)*p.sys.Ey[i] + sigma*p.eyBlend[i]
		}
	}
	p.recordFn = func() {
		p.pendingRec.WallTime = time.Since(p.pendingWall)
		p.pendingRec.SimTime = p.eng.SimulatedTime() - p.pendingSim
		p.rec.Add(p.pendingRec)
	}
}

// autoGridSize picks the density grid dimension: roughly sqrt(numCells)
// rounded to a power of two, clamped to [32, 1024].
func autoGridSize(cells int) int {
	target := int(math.Sqrt(float64(cells)))
	m := 32
	for m < target && m < 1024 {
		m <<= 1
	}
	return m
}

// initialPositions prepares the starting state. If the design already
// provides a spread placement for its movable cells (ISPD inputs do), it
// is kept — the warm-start lambda schedule assumes a spread start. A
// degenerate input (all movable cells clustered within 2% of the die) is
// replaced by a seeded uniform spread over the region.
func initialPositions(d *netlist.Design, seed int64) (x, y []float64) {
	n := d.NumCells()
	x = append(make([]float64, 0, n), d.CellX...)
	y = append(make([]float64, 0, n), d.CellY...)
	var mx, my, sx, sy float64
	nm := 0
	for c := 0; c < n; c++ {
		if d.CellKind[c] == netlist.Movable {
			mx += x[c]
			my += y[c]
			nm++
		}
	}
	if nm == 0 {
		return x, y
	}
	mx /= float64(nm)
	my /= float64(nm)
	for c := 0; c < n; c++ {
		if d.CellKind[c] == netlist.Movable {
			sx += (x[c] - mx) * (x[c] - mx)
			sy += (y[c] - my) * (y[c] - my)
		}
	}
	sx = math.Sqrt(sx / float64(nm))
	sy = math.Sqrt(sy / float64(nm))
	if sx > 0.02*d.Region.W() || sy > 0.02*d.Region.H() {
		return x, y // already spread
	}
	rng := rand.New(rand.NewSource(seed))
	for c := 0; c < n; c++ {
		if d.CellKind[c] == netlist.Movable {
			x[c] = d.Region.Lx + rng.Float64()*d.Region.W()
			y[c] = d.Region.Ly + rng.Float64()*d.Region.H()
		}
	}
	return x, y
}

// Design returns the design the placer operates on: the caller's cells
// followed by the fillers — useful for extension hooks. It shares the
// caller's net and pin tables, so treat it as read-only.
func (p *Placer) Design() *netlist.Design { return p.d }

// Recorder returns the metrics recorder.
func (p *Placer) Recorder() *Recorder { return p.rec }

// Scheduler exposes the parameter scheduler (for inspection in tests and
// experiment harnesses).
func (p *Placer) Scheduler() *sched.Scheduler { return p.schd }

// Run executes the GP loop to convergence and returns the result mapped
// back to the original design's cells.
func (p *Placer) Run() (*Result, error) { return p.RunContext(context.Background()) }

// RunContext executes the GP loop to convergence under ctx. Cancellation
// is checked between kernel launches (at operator-group boundaries inside
// each iteration), so a cancelled run stops with no scratch mid-checkout;
// the returned error is then ctx.Err() (context.Canceled or
// context.DeadlineExceeded) alongside a PARTIAL result: the positions,
// metrics and stats of the iterations that did complete, with
// Result.Iterations equal to the last delivered Snapshot.Iter. A cancelled
// placer remains valid: call Close to return its arena-backed scratch to
// the engine, or RunContext again to resume iterating from the current
// state.
func (p *Placer) RunContext(ctx context.Context) (*Result, error) {
	start := time.Now()
	p.eng.Reset()
	if ctx == nil {
		ctx = context.Background()
	}
	p.ctx = ctx
	defer func() { p.ctx = context.Background() }()
	// The stop test leads the iteration so a run resumed from a checkpoint
	// taken at its natural end does not run an extra iteration. A fresh
	// placer can never start done (iter 0 is below MinIter), so this is
	// the same loop as the classic iterate-then-test form for new runs.
	for !p.done() {
		if err := p.RunIteration(); err != nil {
			return p.finalize(start), err
		}
	}
	return p.finalize(start), nil
}

// done is the strategy-dispatched convergence test.
func (p *Placer) done() bool {
	if p.lbub != nil {
		return p.lbubDone()
	}
	return p.schd.Done(p.lastOverflow)
}

// RunIterations executes exactly n GP iterations (for per-iteration timing
// experiments) and returns the result so far.
func (p *Placer) RunIterations(n int) (*Result, error) {
	start := time.Now()
	p.eng.Reset()
	for i := 0; i < n; i++ {
		if err := p.RunIteration(); err != nil {
			return nil, err
		}
	}
	return p.finalize(start), nil
}

// RunIteration executes a single GP iteration (one LB/UB round under
// StrategyLBUB).
func (p *Placer) RunIteration() error {
	var err error
	switch {
	case p.lbub != nil:
		err = p.iterateLBUB()
	case p.opts.Mode == ModeBaseline:
		err = p.iterateBaseline()
	default:
		err = p.iterateXplace()
	}
	if err != nil {
		return err
	}
	// Divergence guard for the gradient flow: a non-finite or exploding
	// iteration cannot recover (every later step compounds it), so fail
	// fast with the typed error the fallback path keys on. The LB/UB
	// strategy clamps its solves into the region and cannot diverge this
	// way.
	if p.lbub == nil {
		if rec, ok := p.rec.Last(); ok && diverged(rec) {
			return fmt.Errorf("placer: iteration %d: hpwl=%g overflow=%g: %w",
				rec.Iter, rec.HPWL, rec.Overflow, ErrDiverged)
		}
	}
	if p.instrumented {
		p.observeIteration()
	}
	if p.opts.Progress != nil {
		p.opts.Progress(p.snapshot())
	}
	if p.lbub == nil && p.opts.Checkpoint != nil && p.opts.CheckpointEvery > 0 &&
		p.iter%p.opts.CheckpointEvery == 0 {
		p.opts.Checkpoint(p.Checkpoint())
	}
	return nil
}

// snapshot assembles the progress record of the iteration that just
// finished from the recorder's last entry.
func (p *Placer) snapshot() Snapshot {
	rec, _ := p.rec.Last()
	stage := sched.StageName(rec.Omega)
	if p.lbub != nil {
		// Under LB/UB, Omega carries the gap, not the §3.2 progress.
		stage = "lbub"
	}
	return Snapshot{
		Iter:     rec.Iter + 1, // recorder iters are 0-based; see Snapshot.Iter
		HPWL:     rec.HPWL,
		WA:       rec.WA,
		Overflow: rec.Overflow,
		Gamma:    rec.Gamma,
		Lambda:   rec.Lambda,
		Omega:    rec.Omega,
		Stage:    stage,
		WallTime: rec.WallTime,
		SimTime:  rec.SimTime,
	}
}

// Close returns the placer's arena-backed scratch (the spectral plan's
// buffers, the density system's backend buffers, the wirelength partials)
// to the engine, dropping the engine arena's in-use bytes back to their
// pre-placer baseline. Call it when the placer is done — in particular
// after a cancelled or timed-out run, so pooled engines do not accumulate
// dead checkouts. Close is idempotent (every link of the release chain —
// System.Release, Plan.Release, Ops.Release — tolerates a second call);
// a closed placer may still be run (the scratch is simply checked out
// again).
func (p *Placer) Close() {
	if p.wl != nil {
		p.wl.Release()
	}
	if p.sys != nil {
		p.sys.Release(p.eng)
	}
}

func (p *Placer) finalize(start time.Time) *Result {
	var ux, uy []float64
	if p.lbub != nil {
		// The UB solution (rough-legalized) is the deliverable; before the
		// first round completes, fall back to the initial LB positions.
		ux, uy = p.lbub.ubX, p.lbub.ubY
		if !p.lbub.haveUB {
			ux, uy = p.lbub.lbX, p.lbub.lbY
		}
	} else {
		ux, uy = p.opt.Current()
	}
	n := p.cells
	res := &Result{
		X:          append(make([]float64, 0, n), ux[:n]...),
		Y:          append(make([]float64, 0, n), uy[:n]...),
		Overflow:   p.lastOverflow,
		Iterations: p.iter,
		WallTime:   time.Since(start),
		Recorder:   p.rec,
		Stats:      p.eng.Stats(),
	}
	res.SimTime = res.Stats.Simulated
	// Pins never reference fillers: this is the caller's design's HPWL.
	res.HPWL = p.d.HPWL(res.X, res.Y)
	return res
}

// l1Norms computes sum|ax|+|ay| over all cells for two gradient pairs in
// one kernel (used for the r ratio and lambda initialization).
func (p *Placer) l1Norms(ax, ay, bx, by []float64) (na, nb float64) {
	p.l1AX, p.l1AY, p.l1BX, p.l1BY = ax, ay, bx, by
	return p.sumL1(p.eng.LaunchChunks("placer.grad_norms", len(ax), p.l1Body))
}

// sumL1 folds the first used chunks' l1 partials in chunk order.
func (p *Placer) sumL1(used int) (na, nb float64) {
	for w := 0; w < used; w++ {
		na += p.l1PA[w]
		nb += p.l1PB[w]
	}
	return na, nb
}

// metricsRecord assembles the per-iteration metrics record (the host-visible
// scalars; WallTime/SimTime are filled at sync time).
func metricsRecord(p *Placer, hpwl, wa, gamma, lambda float64) Record {
	return Record{
		Iter:     p.iter,
		HPWL:     hpwl,
		WA:       wa,
		Energy:   p.lastEnergy,
		Overflow: p.lastOverflow,
		Gamma:    gamma,
		Lambda:   lambda,
		Omega:    p.schd.Omega(),
		R:        p.lastR,
	}
}

// sigmaBlend is the sigma(omega) weighting of Eq. 14 that hands the early
// placement stage (small omega) to the neural field and fades it out as
// omega grows so the numerical gradient drives fine-grained spreading.
//
// The formula as printed in the paper, 1 - 1/(1 - 5e^(omega/0.05 - 0.5)),
// stays >= 1 for all omega and never decays, contradicting the
// surrounding text ("when sigma drops, grad D takes effect"); the evident
// intent is the decreasing logistic gate with the same constants:
//
//	sigma(omega) = 1 - 1/(1 + 5*e^(0.5 - omega/0.05))
//
// which starts near 0.9 at omega=0 and falls below 0.05 past omega~0.25.
func sigmaBlend(omega float64) float64 {
	return 1 - 1/(1+5*math.Exp(0.5-omega/0.05))
}

// fieldResidual measures the relative L2 distance between the predicted
// field (exBlend/eyBlend) and the numerical solve (sys.Ex/Ey), both
// directions combined. Only evaluated when instrumentation is attached —
// it is a host-side reduction over the full grid.
func (p *Placer) fieldResidual() float64 {
	var diff, ref float64
	ex, ey := p.sys.Ex, p.sys.Ey
	for i := range ex {
		dx := p.exBlend[i] - ex[i]
		dy := p.eyBlend[i] - ey[i]
		diff += dx*dx + dy*dy
		ref += ex[i]*ex[i] + ey[i]*ey[i]
	}
	if ref < 1e-12 {
		ref = 1e-12
	}
	return math.Sqrt(diff / ref)
}
