package xplace

import (
	"context"
	"fmt"
	"sync"
	"time"

	"xplace/internal/backend"
	"xplace/internal/detail"
	"xplace/internal/kernel"
	"xplace/internal/legal"
	"xplace/internal/obs"
	"xplace/internal/placer"
	"xplace/internal/router"
)

// Tracer records operator spans and kernel launches, exportable as Chrome
// trace_event JSON (WriteChromeTrace). A nil *Tracer is the disabled tracer:
// every method no-ops.
type Tracer = obs.Tracer

// NewTracer returns an enabled tracer with its epoch pinned to now.
func NewTracer() *Tracer { return obs.NewTracer() }

// Session is the package's run facade and the one place an engine is
// configured: it owns the engine (created lazily, or supplied with
// WithEngine), the tracer attached to it and the compute backend, and runs
// every placement or flow on them. Everything else about a run — strategy,
// field predictor, metrics registry, progress hook — is a PlacementOptions
// field, set per call. Place and RunFlow are thin wrappers over one Session
// path, so there is a single place where engine lifetime is decided.
//
// Engine ownership: a Session that creates its own engine (no WithEngine)
// closes it in Close; a caller-supplied engine is NEVER closed by the
// session — whoever built it keeps that responsibility. Always `defer
// s.Close()`; it is idempotent and cheap when there is nothing to do.
//
// A Session is safe for sequential reuse (several Place/Flow calls share
// the warm engine); concurrent runs need one Session per goroutine or a
// serve.Scheduler.
type Session struct {
	mu       sync.Mutex
	eng      *kernel.Engine
	ownsEng  bool
	workers  int
	overhead time.Duration
	backend  backend.Backend
	tracer   *obs.Tracer
	closed   bool
}

// Option configures a Session (functional options).
type Option func(*Session)

// WithEngine runs the session on a caller-owned engine. The session will
// not Close it; the caller keeps the engine's lifetime.
func WithEngine(e *Engine) Option {
	return func(s *Session) { s.eng, s.ownsEng = e, false }
}

// WithEngineOptions sets the worker count and simulated launch overhead of
// the engine the session creates lazily (ignored after WithEngine).
// workers <= 0 selects NumCPU; overhead < 0 the default launch cost, 0
// disables the launch-cost model.
func WithEngineOptions(workers int, overhead time.Duration) Option {
	return func(s *Session) { s.workers, s.overhead = workers, overhead }
}

// WithBackend selects the compute backend (element type + kernel bodies)
// of every run the session drives: Float64Backend() is the exact,
// bit-stable reference; Float32Backend() the reduced-precision fast path.
// A per-run PlacementOptions.Backend wins over the session's choice.
func WithBackend(b ComputeBackend) Option {
	return func(s *Session) { s.backend = b }
}

// WithBackendName is WithBackend by registry name ("float64", "float32");
// it is what the CLI -backend flag maps to. Unknown names return an error
// listing the registered backends. The empty name selects the process
// default (the XPLACE_BACKEND environment variable, else the reference).
func WithBackendName(name string) (Option, error) {
	b, err := backend.Lookup(name)
	if err != nil {
		return nil, err
	}
	return WithBackend(b), nil
}

// WithTracer records every kernel launch, operator group and flow stage of
// the session's runs on t (attach is per-run: the engine's tracer is set
// for the duration of Place/Flow and detached after, so a shared engine
// does not keep tracing for other users).
func WithTracer(t *Tracer) Option {
	return func(s *Session) { s.tracer = t }
}

// NewSession builds a session. With no options it lazily creates a
// default engine (NumCPU workers, default launch overhead) that Close
// tears down.
func NewSession(opts ...Option) *Session {
	s := &Session{overhead: -1}
	for _, o := range opts {
		o(s)
	}
	return s
}

// Engine returns the session's engine, creating it on first use when none
// was supplied.
func (s *Session) Engine() *Engine {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.eng == nil {
		s.eng = kernel.New(kernel.Options{Workers: s.workers, LaunchOverhead: s.overhead})
		s.ownsEng = true
	}
	return s.eng
}

// Close releases the session: an engine the session created is Closed
// (worker pool torn down, arena dropped); a caller-supplied engine is left
// untouched. Idempotent.
func (s *Session) Close() {
	s.mu.Lock()
	eng, owns := s.eng, s.ownsEng
	s.eng = nil
	closed := s.closed
	s.closed = true
	s.mu.Unlock()
	if !closed && owns && eng != nil {
		eng.Close()
	}
}

// instrument fills the run options' tracer and backend from the session
// when the run leaves them unset.
func (s *Session) instrument(opts placer.Options) placer.Options {
	if opts.Tracer == nil {
		opts.Tracer = s.tracer
	}
	if opts.Backend == nil {
		opts.Backend = s.backend
	}
	return opts
}

// attachTracer points the engine at the run's tracer for the duration of
// one run; the returned detach must be deferred.
func (s *Session) attachTracer(eng *Engine, t *obs.Tracer) (detach func()) {
	if t == nil {
		return func() {}
	}
	eng.SetTracer(t)
	return func() { eng.SetTracer(nil) }
}

// Place runs global placement to convergence under ctx on the session's
// engine. On cancellation or deadline the error is ctx.Err() and the
// result holds the partial placement (see placer.RunContext).
func (s *Session) Place(ctx context.Context, d *Design, opts PlacementOptions) (*PlacementResult, error) {
	opts = s.instrument(opts)
	eng := s.Engine()
	p, err := placer.New(d, eng, opts)
	if err != nil {
		return nil, err
	}
	defer p.Close()
	defer s.attachTracer(eng, opts.Tracer)()
	return p.RunContext(ctx)
}

// Flow executes the full placement flow (GP -> legalization -> detailed
// placement -> optional routing) under ctx on the session's engine.
// Cancellation is honored between kernel launches during global placement
// and between the stages; on cancellation the error wraps ctx.Err(). Stage
// boundaries are recorded as flow-stage spans when the run has a tracer.
func (s *Session) Flow(ctx context.Context, d *Design, opts FlowOptions) (*FlowResult, error) {
	if opts.Progress != nil {
		opts.Placement.Progress = opts.Progress
	}
	popts := s.instrument(opts.Placement)
	eng := s.Engine()
	p, err := placer.New(d, eng, popts)
	if err != nil {
		return nil, err
	}
	defer p.Close()
	defer s.attachTracer(eng, popts.Tracer)()
	tr := popts.Tracer

	res := &FlowResult{}
	stageStart := time.Now()
	simStart := eng.SimulatedTime()
	stage := func(name string) {
		if tr != nil {
			tr.Span(name, obs.CatFlow, stageStart, time.Since(stageStart),
				simStart, eng.SimulatedTime()-simStart, -1)
		}
		stageStart = time.Now()
		simStart = eng.SimulatedTime()
	}

	gp, err := p.RunContext(ctx)
	if err != nil {
		return nil, fmt.Errorf("xplace: global placement: %w", err)
	}
	stage("flow.gp")
	res.GP = gp
	res.GPTime = gp.WallTime
	res.GPSim = gp.SimTime
	res.HPWLGP = gp.HPWL

	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("xplace: legalization: %w", err)
	}
	lgStart := time.Now()
	lx, ly, err := Legalize(d, gp.X, gp.Y, opts.Legalizer)
	if err != nil {
		return nil, fmt.Errorf("xplace: legalization: %w", err)
	}
	stage("flow.legalize")
	res.LGTime = time.Since(lgStart)
	res.LegalX, res.LegalY = lx, ly
	res.HPWLLegal = d.HPWL(lx, ly)

	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("xplace: detailed placement: %w", err)
	}
	dpStart := time.Now()
	res.FinalX, res.FinalY = detail.Run(d, lx, ly, detail.Options{})
	res.DPTime = time.Since(dpStart)
	stage("flow.detail")
	res.HPWLFinal = d.HPWL(res.FinalX, res.FinalY)
	res.Violations = len(legal.Check(d, res.FinalX, res.FinalY))

	if opts.Route != nil {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("xplace: routing: %w", err)
		}
		res.Route = router.Route(d, res.FinalX, res.FinalY, *opts.Route)
		stage("flow.route")
	}
	return res, nil
}
