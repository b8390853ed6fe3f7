// Package serve is the placement job runtime: a bounded scheduler that
// runs many global-placement jobs against a pool of kernel engines — the
// production shape both DG-RePlAce (batched analytical placement) and
// RL-guided placement (fleets of rollouts per policy step) assume, where
// the unit of work is a *fleet* of placements rather than one.
//
// Architecture:
//
//   - Submit puts a Job on a bounded queue (backpressure: a full queue
//     rejects with ErrQueueFull instead of blocking the caller).
//   - A fixed set of workers drains the queue. Each worker owns one
//     kernel.Engine for its whole life, so N jobs share M engines with no
//     two jobs ever driving the same engine concurrently — engine state
//     (worker pool, arena) is reused across jobs, not contended.
//   - Every job runs under its own context.Context (per-job timeout plus
//     explicit Cancel); the placer checks it between kernel launches, and
//     the job's arena-backed scratch is released on every exit path, so a
//     killed job returns the engine arena to its pre-job in-use baseline.
//   - Per-iteration progress (iter, HPWL, overflow, lambda, gamma, stage)
//     is kept in a bounded ring and fanned out to subscribers (Progress).
//   - Shutdown stops intake, drains queued and running jobs (cancelling
//     the remainder when its context expires), then tears down the
//     engines — no goroutines survive it.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"xplace/internal/jobstore"
	"xplace/internal/kernel"
	"xplace/internal/netlist"
	"xplace/internal/obs"
	"xplace/internal/placer"
)

// Submission errors.
var (
	// ErrQueueFull is returned by Submit when the bounded queue is at
	// capacity (backpressure: the caller should retry later or shed load).
	ErrQueueFull = errors.New("serve: job queue full")
	// ErrDraining is returned by Submit after Shutdown has begun.
	ErrDraining = errors.New("serve: scheduler is draining")
)

// State is a job's lifecycle state.
type State int32

// Job lifecycle states.
const (
	Queued State = iota
	Running
	Succeeded
	Failed
	Canceled
	TimedOut
)

func (s State) String() string {
	switch s {
	case Queued:
		return "queued"
	case Running:
		return "running"
	case Succeeded:
		return "succeeded"
	case Failed:
		return "failed"
	case Canceled:
		return "canceled"
	case TimedOut:
		return "timed-out"
	}
	return fmt.Sprintf("State(%d)", int32(s))
}

// Terminal reports whether the state is final.
func (s State) Terminal() bool { return s >= Succeeded }

// MarshalText writes the state as its String name, the form Status
// carries on the wire ("state":"succeeded").
func (s State) MarshalText() ([]byte, error) { return []byte(s.String()), nil }

// UnmarshalText reads a String name; any other name is an error, so a
// status naming an unknown state does not decode.
func (s *State) UnmarshalText(b []byte) error {
	st, ok := ParseState(string(b))
	if !ok {
		return fmt.Errorf("serve: unknown job state %q", b)
	}
	*s = st
	return nil
}

// ParseState is the inverse of State.String; ok is false for a name no
// state prints as. Outside UnmarshalText it reads the names the WAL stores.
func ParseState(name string) (State, bool) {
	for s := Queued; s <= TimedOut; s++ {
		if s.String() == name {
			return s, true
		}
	}
	return Failed, false
}

// Spec describes one placement job.
type Spec struct {
	// Design is the finished design to place. The placer only reads it
	// (its filler-extended model shares the net and pin tables read-only),
	// so one design may back many concurrent jobs.
	Design *netlist.Design
	// Options configures global placement (Progress is overwritten by the
	// runtime's own hook).
	Options placer.Options
	// Timeout bounds the job's run time (measured from run start, not
	// submission). 0 falls back to the scheduler's DefaultTimeout.
	Timeout time.Duration
	// Label is a free-form tag echoed in Status.
	Label string
	// Trace, when true, records a per-job operator trace: the runtime
	// attaches a fresh obs.Tracer to the worker's engine and the placer for
	// the job's duration, retrievable with Job.Tracer (the /jobs/{id}/trace
	// endpoint). Tracing buffers every kernel launch in memory; reserve it
	// for diagnosis, not fleet-wide defaults.
	Trace bool
	// Payload is the job's durable, replayable form — the tiny spec the
	// design and options were derived from (e.g. the daemon's canonical
	// request JSON), NOT the expanded netlist. When the scheduler has a
	// store, Payload is written to the WAL at submission and handed to
	// Options.Rehydrate after a restart to rebuild this Spec. Empty payload
	// = job is not recoverable (it is still durable as a terminal record).
	Payload []byte
	// Key is the job's content address for the result cache: identical
	// (design, options) submissions must produce identical keys. When the
	// scheduler has a store and Key is non-empty, a succeeded job's result
	// is cached under Key and later submissions with the same Key are
	// served from the cache without running an engine. Empty disables
	// caching for this job.
	Key string
	// Model names a field model from the scheduler's ModelRegistry to
	// blend into the job's early placement stage (§3.3). Empty runs the
	// pure numerical flow. Submit rejects names the registry does not
	// hold with UnknownModelError.
	Model string
}

// Options configures a Scheduler.
type Options struct {
	// Engines is the engine-pool size = max concurrently running jobs
	// (default 2).
	Engines int
	// QueueCap bounds the submit queue (default 16). A full queue rejects.
	QueueCap int
	// EngineWorkers is the kernel parallelism per engine (0 = NumCPU).
	// Fleets should divide the machine: Engines*EngineWorkers ~ NumCPU.
	EngineWorkers int
	// LaunchOverhead is the simulated kernel-launch cost per engine
	// (negative = default, 0 = off), as in kernel.Options.
	LaunchOverhead time.Duration
	// DefaultTimeout bounds jobs that do not set Spec.Timeout (0 = none).
	DefaultTimeout time.Duration
	// Store makes the scheduler durable: job transitions are written to the
	// store's WAL, running jobs checkpoint every CheckpointEvery iterations,
	// succeeded keyed jobs populate the result cache, and New replays the
	// WAL — re-enqueuing every job that never reached a terminal state,
	// resuming checkpointed ones mid-trajectory. Nil = fully in-memory.
	Store *jobstore.Store
	// Rehydrate rebuilds a Spec from the durable payload recorded at
	// submission. Required for recovery: a non-terminal recovered job with
	// no working Rehydrate is marked failed rather than silently dropped.
	Rehydrate func(payload []byte) (Spec, error)
	// CheckpointEvery is the running-job checkpoint period in GP iterations
	// (default 25 when a Store is set; <0 disables checkpointing).
	CheckpointEvery int
	// Models is the registry of named field models jobs may select via
	// Spec.Model (the daemon's -models dir). Nil rejects every model
	// request.
	Models *ModelRegistry
}

func (o Options) withDefaults() Options {
	if o.Engines <= 0 {
		o.Engines = 2
	}
	if o.QueueCap <= 0 {
		o.QueueCap = 16
	}
	if o.Store != nil && o.CheckpointEvery == 0 {
		o.CheckpointEvery = 25
	}
	return o
}

// Job is one placement unit of work. All accessors are safe for concurrent
// use.
type Job struct {
	*Progress // snapshot ring + subscriber fan-out; closed on terminal state

	spec Spec

	cancel context.CancelFunc // fires the job's base context
	base   context.Context

	mu     sync.Mutex
	st     Status // everything but Progress, which Status fills from the ring
	err    error
	result *placer.Result
	tracer *obs.Tracer // per-job trace (Spec.Trace); set when running

	done chan struct{} // closed on terminal state
}

// Status is a job's externally visible state and its one wire form: the
// scheduler builds it, jobapi.NewMux writes it (the body of 202/GET/cancel
// responses and of the SSE "done" event) and a gateway decodes it, merges
// it into its own job and serves it again. Node, RemoteID, Draft and
// Failovers are set only by a gateway; Resumed only by a worker (a gateway
// passes its worker's value through).
type Status struct {
	ID        int64  `json:"id"`
	Label     string `json:"label"`
	State     State  `json:"state"` // its String name
	Err       string `json:"error,omitempty"`
	Node      string `json:"node,omitempty"`      // worker currently running the job
	RemoteID  int64  `json:"remote_id,omitempty"` // job id on that worker
	Draft     bool   `json:"draft,omitempty"`     // degraded to the gateway's local lbub tier
	Failovers int    `json:"failovers,omitempty"` // reruns after a worker death

	Submitted time.Time  `json:"submitted"`
	Started   *time.Time `json:"started,omitempty"`
	Finished  *time.Time `json:"finished,omitempty"`
	// Progress is the most recent iteration snapshot (nil until the first
	// iteration completes).
	Progress *placer.Snapshot `json:"progress,omitempty"`
	// Iterations / HPWL / Overflow are filled from the result once the job
	// finishes (for cancelled/timed-out jobs: the partial result).
	Iterations int     `json:"iterations,omitempty"`
	HPWL       float64 `json:"hpwl,omitempty"`
	Overflow   float64 `json:"overflow,omitempty"`
	// Cached: the result came from the durable result cache — no engine ran.
	Cached bool `json:"cached,omitempty"`
	// Recovered: the job was re-materialized from the WAL after a restart;
	// Resumed additionally means it continued mid-trajectory from a
	// checkpoint rather than restarting at iteration 0.
	Recovered bool `json:"recovered,omitempty"`
	Resumed   bool `json:"resumed,omitempty"`
	// Fallback names the strategy that rescued the job after the primary
	// one diverged ("lbub"); empty for a first-try result. A fallback
	// result is a lower-quality draft and is never entered into the
	// result cache.
	Fallback string `json:"fallback,omitempty"`
}

// RecoveredStatus is the status of a job its WAL record shows terminal:
// the history a restarted scheduler or gateway serves for it. An unknown
// state name reads as Failed.
func RecoveredStatus(r jobstore.JobRecord) Status {
	state, _ := ParseState(r.State)
	st := Status{
		ID: r.ID, Label: r.Label, State: state, Err: r.Err, Submitted: r.Submitted,
		Iterations: r.Iterations, HPWL: r.HPWL, Overflow: r.Overflow,
		Cached: r.Cached, Recovered: true,
	}
	if !r.Started.IsZero() {
		st.Started = &r.Started
	}
	if !r.Finished.IsZero() {
		st.Finished = &r.Finished
	}
	return st
}

// ID returns the job id assigned at submission (set before the job is
// published, never changed).
func (j *Job) ID() int64 { return j.st.ID }

// Done is closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Result returns the placement result and the job's error, if any. A
// succeeded job has a result and a nil error; a cancelled or timed-out job
// has BOTH — the partial result of the iterations that completed (its
// Iterations equals the last delivered Snapshot.Iter) alongside the
// context error. Only a job that failed outright (or was cancelled while
// still queued) has a nil result.
func (j *Job) Result() (*placer.Result, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result, j.err
}

// Tracer returns the job's operator trace, or nil when the job was not
// submitted with Spec.Trace (or has not started running yet). The tracer
// keeps accumulating until the job finishes; reading it concurrently is
// safe (recording and export take the tracer's own lock).
func (j *Job) Tracer() *obs.Tracer {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.tracer
}

func (j *Job) setTracer(t *obs.Tracer) {
	j.mu.Lock()
	j.tracer = t
	j.mu.Unlock()
}

// Status returns a snapshot of the job's state.
func (j *Job) Status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := j.st
	if p, ok := j.Last(); ok {
		st.Progress = &p
	}
	return st
}

// Wait blocks until the job finishes or ctx is done, returning the result
// and job error (or ctx.Err() if ctx wins).
func (j *Job) Wait(ctx context.Context) (*placer.Result, error) {
	select {
	case <-j.done:
		return j.Result()
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// begin transitions Queued -> Running; ok is false when the job was
// cancelled while queued.
func (j *Job) begin() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.st.State != Queued {
		return false
	}
	now := time.Now()
	j.st.State, j.st.Started = Running, &now
	return true
}

// finishLocked moves the job to its terminal state, classifying the
// error. It requires j.mu held and reports whether this call performed
// the transition; when it returns true the caller must settle the job
// (Scheduler.settle) after releasing the lock.
func (j *Job) finishLocked(res *placer.Result, err error) bool {
	if j.st.State.Terminal() {
		return false
	}
	j.result, j.err = res, err
	switch {
	case err == nil:
		j.st.State = Succeeded
	case errors.Is(err, context.DeadlineExceeded):
		j.st.State = TimedOut
	case errors.Is(err, context.Canceled):
		j.st.State = Canceled
	default:
		j.st.State = Failed
	}
	if err != nil {
		j.st.Err = err.Error()
	}
	if res != nil {
		j.st.Iterations, j.st.HPWL, j.st.Overflow = res.Iterations, res.HPWL, res.Overflow
	}
	now := time.Now()
	j.st.Finished = &now
	return true
}

// finish moves the job to its terminal state. It reports whether this
// call performed the transition (false when another goroutine — e.g.
// Cancel racing the worker — got there first). The winner owes the
// settle; see jobFinished.
func (j *Job) finish(res *placer.Result, err error) bool {
	j.mu.Lock()
	ok := j.finishLocked(res, err)
	j.mu.Unlock()
	return ok
}

// cancelIfQueued atomically moves a still-queued job to Canceled. The
// check and the transition happen under one j.mu hold, so it cannot race
// begin: either this call wins and the worker's begin sees a terminal
// state (and skips the run), or begin wins and the running job is left
// to its context cancellation. This closes the historical check-then-act
// window where Cancel observed Queued, a worker began the job, and the
// unlocked finish then marked a *running* job Canceled while the placer
// kept going — discarding its eventual partial result.
func (j *Job) cancelIfQueued() bool {
	j.mu.Lock()
	if j.st.State != Queued {
		j.mu.Unlock()
		return false
	}
	ok := j.finishLocked(nil, context.Canceled)
	j.mu.Unlock()
	return ok
}

// Counters is a snapshot of the scheduler's cumulative accounting.
type Counters struct {
	Submitted  int64
	Rejected   int64
	Succeeded  int64
	Failed     int64
	Canceled   int64
	TimedOut   int64
	Active     int64 // currently running jobs
	Queued     int64 // currently queued jobs
	Iterations int64 // GP iterations completed across all finished jobs
	Launches   int64 // kernel launches across all finished jobs
}

// Scheduler runs placement jobs from a bounded queue over an engine pool.
// Its cumulative accounting lives in an obs.Registry (the xserve_* series),
// so the daemon's /metrics scrape renders the same instruments the
// scheduler updates — no parallel hand-rolled counter set.
type Scheduler struct {
	opts    Options
	store   *jobstore.Store
	queue   chan *Job
	engines []*kernel.Engine
	wg      sync.WaitGroup
	drained chan struct{} // closed once all workers have exited

	mu       sync.Mutex
	jobs     map[int64]*Job
	nextID   int64
	draining bool
	drainErr error // first Shutdown outcome, repeated to later callers

	reg         *obs.Registry
	submitted   *obs.Counter
	rejected    *obs.Counter
	succeeded   *obs.Counter
	failed      *obs.Counter
	canceled    *obs.Counter
	timedOut    *obs.Counter
	active      *obs.Gauge
	iterations  *obs.Counter
	launches    *obs.Counter
	jobSeconds  *obs.Histogram
	walAppends  *obs.Counter
	checkpoints *obs.Counter
	storeErrors *obs.Counter
	recovered   *obs.Counter
	resumed     *obs.Counter
	compacted   *obs.Counter
	cacheHits   *obs.Counter
	cacheMisses *obs.Counter
	fallbacks   *obs.Counter

	models  *ModelRegistry
	nnJobs  *obs.Counter
	nnCalls *obs.Counter
}

// New starts a scheduler with its engine pool and worker set. With
// Options.Store set it first replays the store's WAL: every job that
// never reached a terminal state is rebuilt via Options.Rehydrate and
// re-enqueued (ahead of any new submission), jobs with a checkpoint
// resume mid-trajectory, and terminal jobs re-appear in Jobs() as
// recovered history. The error is non-nil only for a store-level replay
// failure; a job that cannot be rehydrated is marked failed instead of
// blocking startup.
func New(opts Options) (*Scheduler, error) {
	o := opts.withDefaults()
	reg := obs.NewRegistry()
	var recov []jobstore.JobRecord
	queueCap := o.QueueCap
	if o.Store != nil {
		var err error
		recov, err = o.Store.Recover()
		if err != nil {
			return nil, err
		}
		// The recovered backlog must fit the queue regardless of QueueCap:
		// recovery re-enqueues jobs that were already accepted once.
		pending := 0
		for _, r := range recov {
			if !r.Terminal() {
				pending++
			}
		}
		if pending > queueCap {
			queueCap = pending
		}
	}
	s := &Scheduler{
		opts:    o,
		store:   o.Store,
		queue:   make(chan *Job, queueCap),
		jobs:    make(map[int64]*Job),
		drained: make(chan struct{}),
		reg:     reg,
	}
	s.submitted = reg.Counter("xserve_jobs_submitted", "jobs accepted by Submit")
	s.rejected = reg.Counter("xserve_jobs_rejected", "jobs rejected by a full queue")
	s.succeeded = reg.Counter("xserve_jobs_succeeded", "jobs finished successfully")
	s.failed = reg.Counter("xserve_jobs_failed", "jobs finished with an error")
	s.canceled = reg.Counter("xserve_jobs_canceled", "jobs cancelled")
	s.timedOut = reg.Counter("xserve_jobs_timed_out", "jobs that hit their timeout")
	s.active = reg.Gauge("xserve_jobs_active", "currently running jobs")
	reg.GaugeFunc("xserve_jobs_queued", "currently queued jobs",
		func() float64 { return float64(len(s.queue)) })
	s.iterations = reg.Counter("xserve_gp_iterations_total", "GP iterations across finished jobs")
	s.launches = reg.Counter("xserve_kernel_launches_total", "kernel launches across finished jobs")
	s.jobSeconds = reg.Histogram("xserve_job_seconds", "job run time (start to finish)", nil)
	s.walAppends = reg.Counter("xserve_store_wal_appends_total", "records appended to the job WAL")
	s.checkpoints = reg.Counter("xserve_store_checkpoints_total", "placer checkpoints written to the store")
	s.storeErrors = reg.Counter("xserve_store_errors_total", "job store operations that failed")
	s.recovered = reg.Counter("xserve_store_recovered_jobs", "non-terminal jobs re-enqueued on startup")
	s.resumed = reg.Counter("xserve_store_resumed_jobs", "recovered jobs resumed from a checkpoint")
	s.compacted = reg.Counter("xserve_store_compacted_records", "raw WAL records folded away by startup compaction")
	s.cacheHits = reg.Counter("xserve_cache_hits_total", "submissions served from the result cache")
	s.cacheMisses = reg.Counter("xserve_cache_misses_total", "keyed submissions that missed the result cache")
	s.fallbacks = reg.Counter("xserve_fallback_total", "diverged jobs rescued by the lbub fallback strategy")
	if o.Models != nil {
		s.models = o.Models
		s.nnJobs = reg.Counter("xserve_nn_jobs_total", "jobs run with a field model attached")
		s.nnCalls = reg.Counter("xserve_nn_inference_total", "PredictField calls run on the shared field models")
		reg.GaugeFunc("xserve_nn_models_loaded", "field models in the registry",
			func() float64 { return float64(o.Models.Len()) })
		reg.GaugeFunc("xserve_nn_model_refs", "live job references across all field models",
			func() float64 { return float64(o.Models.totalRefs()) })
	}
	if s.store != nil {
		reg.GaugeFunc("xserve_cache_entries", "results in the durable cache",
			func() float64 { return float64(s.store.CacheLen()) })
		reg.GaugeFunc("xserve_store_skipped_wal_records", "undecodable WAL lines skipped by the latest replay",
			func() float64 { return float64(s.store.SkippedRecords()) })
	}
	s.recoverJobs(recov)
	if s.store != nil {
		// WAL rotation: recovery replayed every historical transition, so
		// snapshot the folded state and truncate the log here — before the
		// workers start appending — keeping a long-lived node's next replay
		// proportional to its job count, not its transition history. A failed
		// compaction leaves the old WAL in place: slower recovery, no data
		// loss.
		if dropped, err := s.store.Compact(); err != nil {
			s.storeErrors.Inc()
		} else {
			s.compacted.Add(int64(dropped))
		}
	}
	for i := 0; i < o.Engines; i++ {
		eng := kernel.New(kernel.Options{
			Workers:        o.EngineWorkers,
			LaunchOverhead: o.LaunchOverhead,
		})
		s.engines = append(s.engines, eng)
		s.registerEngineGauges(i, eng)
		s.wg.Add(1)
		go s.worker(eng)
	}
	return s, nil
}

// recoverJobs re-materializes WAL jobs before the workers start: terminal
// records become visible history, non-terminal ones go back on the queue
// (in their original submission order, ahead of any new submission).
func (s *Scheduler) recoverJobs(recov []jobstore.JobRecord) {
	for _, r := range recov {
		if r.ID > s.nextID {
			s.nextID = r.ID
		}
		j := &Job{
			Progress: NewProgress(),
			st: Status{
				ID: r.ID, Label: r.Label, Submitted: r.Submitted, Recovered: true,
			},
			done: make(chan struct{}),
		}
		s.jobs[r.ID] = j
		if r.Terminal() {
			// History only: restore the terminal state without recounting it
			// in this process's lifecycle counters.
			j.st = RecoveredStatus(r)
			if r.Err != "" {
				j.err = errors.New(r.Err)
			}
			if j.st.State == Succeeded {
				j.result = &placer.Result{
					Iterations: r.Iterations, HPWL: r.HPWL, Overflow: r.Overflow,
				}
			}
			j.Progress.Close()
			close(j.done)
			continue
		}
		base, cancel := context.WithCancel(context.Background())
		j.base, j.cancel = base, cancel
		spec, err := s.rehydrate(r)
		if err != nil {
			s.jobFinished(j, nil, fmt.Errorf("serve: recovering job %d: %w", r.ID, err))
			continue
		}
		if spec.Options.Resume != nil {
			j.st.Resumed = true
			s.resumed.Inc()
		}
		j.spec = spec
		s.recovered.Inc()
		s.queue <- j // cap sized to the backlog in New; never blocks
	}
}

// rehydrate rebuilds a recovered job's Spec from its durable payload and
// attaches the newest checkpoint, if one exists.
func (s *Scheduler) rehydrate(r jobstore.JobRecord) (Spec, error) {
	if s.opts.Rehydrate == nil {
		return Spec{}, errors.New("no Rehydrate hook configured")
	}
	if len(r.Payload) == 0 {
		return Spec{}, errors.New("no durable payload recorded")
	}
	spec, err := s.opts.Rehydrate(r.Payload)
	if err != nil {
		return Spec{}, err
	}
	spec.Payload = append([]byte(nil), r.Payload...)
	spec.Key = r.Key
	spec.Label = r.Label
	// Strategies without resume support restart from iteration 0; handing
	// them a checkpoint would fail the rebuilt job outright
	// (placer.ErrStrategyNotResumable).
	if r.HasCheckpoint && spec.Options.Strategy == placer.StrategyNesterov {
		if b, ok := s.store.LoadCheckpoint(r.ID); ok {
			var cp placer.Checkpoint
			if json.Unmarshal(b, &cp) == nil {
				spec.Options.Resume = &cp
			}
			// An unreadable checkpoint restarts the job from iteration 0 —
			// correctness over speed.
		}
	}
	return spec, nil
}

// registerEngineGauges publishes one pooled engine's live accounting as
// scrape-time gauges. The functions read engine state under the engine's
// own locks only — a scrape never touches job locks, so it cannot stall
// (or be stalled by) a running placement.
func (s *Scheduler) registerEngineGauges(i int, eng *kernel.Engine) {
	label := fmt.Sprintf("{engine=%q}", fmt.Sprint(i))
	gauge := func(name, help string, fn func() float64) {
		s.reg.GaugeFunc(name+label, help, fn)
	}
	gauge("xserve_engine_workers", "kernel parallelism per engine",
		func() float64 { return float64(eng.Workers()) })
	gauge("xserve_engine_launches", "engine launches in the current stats window",
		func() float64 { return float64(eng.Stats().Launches) })
	gauge("xserve_engine_syncs", "engine syncs in the current stats window",
		func() float64 { return float64(eng.Stats().Syncs) })
	gauge("xserve_arena_in_use_bytes", "arena bytes checked out",
		func() float64 { return float64(eng.ArenaStats().InUse) })
	gauge("xserve_arena_pooled_bytes", "arena bytes pooled",
		func() float64 { return float64(eng.ArenaStats().Pooled) })
	gauge("xserve_arena_peak_bytes", "arena peak bytes",
		func() float64 { return float64(eng.ArenaStats().Peak) })
	gauge("xserve_arena_hits", "arena free-list hits",
		func() float64 { return float64(eng.ArenaStats().Hits) })
	gauge("xserve_arena_misses", "arena free-list misses",
		func() float64 { return float64(eng.ArenaStats().Misses) })
}

// Registry returns the scheduler's metrics registry: its xserve_* series
// and every job placer's xplace_* series (the daemon's /metrics endpoint).
func (s *Scheduler) Registry() *obs.Registry { return s.reg }

// Submit enqueues a job. It never blocks: a full queue returns
// ErrQueueFull and a draining scheduler ErrDraining.
func (s *Scheduler) Submit(spec Spec) (*Job, error) {
	if spec.Design == nil || !spec.Design.Finished() {
		return nil, errors.New("serve: spec needs a finished design")
	}
	if spec.Model != "" {
		// Reject unknown models at submission (a typed 400 at the HTTP
		// boundary) rather than failing the job after it queued.
		if s.models == nil {
			return nil, &UnknownModelError{Name: spec.Model}
		}
		if !s.models.Has(spec.Model) {
			return nil, &UnknownModelError{Name: spec.Model, Known: s.models.Names()}
		}
	}
	base, cancel := context.WithCancel(context.Background())
	j := &Job{
		Progress: NewProgress(),
		spec:     spec,
		base:     base,
		cancel:   cancel,
		st:       Status{Label: spec.Label, Submitted: time.Now()},
		done:     make(chan struct{}),
	}
	// Result-cache lookup: an identical prior submission (same content key)
	// finishes the job immediately from the durable cache — no queue slot,
	// no engine, no GP iterations.
	var hit *jobstore.CachedResult
	if s.store != nil && spec.Key != "" {
		if cr, ok := s.store.GetResult(spec.Key); ok {
			hit = cr
		}
	}
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		cancel()
		return nil, ErrDraining
	}
	s.nextID++
	j.st.ID = s.nextID
	if hit == nil {
		select {
		case s.queue <- j:
		default:
			s.mu.Unlock()
			cancel()
			s.rejected.Inc()
			return nil, ErrQueueFull
		}
	} else {
		j.st.Cached = true
	}
	s.jobs[j.st.ID] = j
	s.mu.Unlock()
	s.submitted.Inc()
	if s.store != nil && spec.Key != "" {
		if hit != nil {
			s.cacheHits.Inc()
		} else {
			s.cacheMisses.Inc()
		}
	}
	s.walAppend(func() error {
		return s.store.AppendSubmit(j.ID(), spec.Label, spec.Payload, spec.Key)
	})
	if hit != nil {
		s.jobFinished(j, &placer.Result{
			X: hit.X, Y: hit.Y,
			HPWL: hit.HPWL, Overflow: hit.Overflow, Iterations: hit.Iterations,
		}, nil)
	}
	return j, nil
}

// walAppend runs one WAL append when the scheduler is durable, folding
// failures into the store-error counter (the job proceeds regardless —
// losing a WAL record degrades recovery, not the placement).
func (s *Scheduler) walAppend(fn func() error) {
	if s.store == nil {
		return
	}
	if err := fn(); err != nil {
		s.storeErrors.Inc()
		return
	}
	s.walAppends.Inc()
}

// Job looks a job up by id.
func (s *Scheduler) Job(id int64) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Jobs returns every known job, newest first (descending id — ids are
// assigned in submission order and recovery preserves them).
func (s *Scheduler) Jobs() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		out = append(out, j)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].ID() > out[b].ID() })
	return out
}

// Cancel cancels a job: a queued job finishes immediately as Canceled, a
// running one aborts at its next between-launch cancellation point.
// Returns false for unknown ids.
func (s *Scheduler) Cancel(id int64) bool {
	j, ok := s.Job(id)
	if !ok {
		return false
	}
	j.cancel()
	// A queued job has no worker to notice the context; finish it here so
	// Cancel is immediate regardless of queue position. The queued check
	// and the terminal transition are one atomic step (see cancelIfQueued),
	// so a worker's racing begin either sees the cancelled state or wins
	// outright and leaves the run to its context.
	if j.cancelIfQueued() {
		s.settle(j, nil)
	}
	return true
}

// jobFinished records the terminal transition exactly once and settles it.
func (s *Scheduler) jobFinished(j *Job, res *placer.Result, err error) {
	if !j.finish(res, err) {
		return // another goroutine (Cancel vs worker) won the transition
	}
	s.settle(j, res)
}

// settle publishes a terminal transition this goroutine performed. The
// counters and the store work (terminal WAL record, checkpoint removal)
// come first; only then does the progress stream end (the SSE done frame)
// and the done channel close, so a waiter that observes completion
// observes a job already counted and a completion the store already
// remembers. A run's result-cache entry precedes even the transition
// (see cacheResult).
func (s *Scheduler) settle(j *Job, res *placer.Result) {
	s.recordFinish(j, res)
	j.Progress.Close()
	close(j.done)
}

// recordFinish updates counters and the durable store after a terminal
// transition this goroutine performed.
func (s *Scheduler) recordFinish(j *Job, res *placer.Result) {
	st := j.Status()
	switch st.State {
	case Succeeded:
		s.succeeded.Inc()
	case Failed:
		s.failed.Inc()
	case Canceled:
		s.canceled.Inc()
	case TimedOut:
		s.timedOut.Inc()
	}
	if res != nil && !st.Cached {
		// Cache hits burn no engine: the pre-computed result must not count
		// as new GP work.
		s.iterations.Add(int64(res.Iterations))
		s.launches.Add(res.Stats.Launches)
	}
	if st.Started != nil {
		s.jobSeconds.Observe(st.Finished.Sub(*st.Started).Seconds())
	}
	if s.store == nil {
		return
	}
	s.walAppend(func() error {
		return s.store.AppendFinish(st.ID, st.State.String(), st.Err,
			st.Iterations, st.HPWL, st.Overflow, st.Cached)
	})
	s.store.RemoveCheckpoint(st.ID)
}

// cacheResult writes a keyed run's result to the result cache. runJob
// calls it before the terminal transition, so a client that reads
// Succeeded and resubmits at once finds the entry. Should Cancel win the
// transition after the write, the entry stays: the result is still the
// correct one for its key. Fallback results are deliberately not cached:
// the key describes the requested strategy, and a draft-quality rescue
// must not shadow a future successful run (or a fixed input) forever.
func (s *Scheduler) cacheResult(j *Job, res *placer.Result) {
	if s.store == nil || j.spec.Key == "" || res == nil || j.Status().Fallback != "" {
		return
	}
	if err := s.store.PutResult(&jobstore.CachedResult{
		Key: j.spec.Key, Iterations: res.Iterations,
		HPWL: res.HPWL, Overflow: res.Overflow, X: res.X, Y: res.Y,
	}); err != nil {
		s.storeErrors.Inc()
	}
}

// worker owns one engine and drains the queue until Shutdown closes it.
func (s *Scheduler) worker(eng *kernel.Engine) {
	defer s.wg.Done()
	defer eng.Close()
	for j := range s.queue {
		s.runJob(eng, j)
	}
}

// runJob executes one job on eng under the job's context. The job turns
// terminal only after place has returned: by then its placers' arena
// scratch is back in the engine, its model reference is released, the
// engine's tracer is detached and the active gauge no longer counts it, so
// a caller woken by Wait or the SSE done frame sees a settled worker.
func (s *Scheduler) runJob(eng *kernel.Engine, j *Job) {
	if !j.begin() {
		return // cancelled while queued
	}
	res, err := s.run(eng, j)
	if err == nil {
		s.cacheResult(j, res)
	}
	s.jobFinished(j, res, err)
}

// run is place counted in the active gauge, with a panic in the job's
// placement — a *kernel.LaunchPanic re-raised by a launch, or one from a
// host-side hook such as Options.ExtraGradient — turned into the job's
// error: the job fails and the worker goes on to the next one. place's
// deferred releases and the gauge decrement run while the panic unwinds.
func (s *Scheduler) run(eng *kernel.Engine, j *Job) (res *placer.Result, err error) {
	s.active.Add(1)
	defer s.active.Add(-1)
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, fmt.Errorf("serve: job %d panicked: %v", j.ID(), r)
		}
	}()
	return s.place(eng, j)
}

// place runs the job's placement, falling back to lbub when the gradient
// flow diverges, and returns its outcome. Everything it acquires is
// released by the time it returns.
func (s *Scheduler) place(eng *kernel.Engine, j *Job) (*placer.Result, error) {
	s.walAppend(func() error { return s.store.AppendBegin(j.ID()) })

	timeout := j.spec.Timeout
	if timeout == 0 {
		timeout = s.opts.DefaultTimeout
	}
	ctx := j.base
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}

	opts := j.spec.Options
	opts.Progress = j.Add
	opts.Metrics = s.reg
	if j.spec.Model != "" {
		// Attach the shared model. A recovered job can reach this point on
		// a node whose registry no longer holds the model (Submit
		// validation only covers live submissions) — that job fails typed,
		// same as a 400 would have.
		if s.models == nil {
			return nil, &UnknownModelError{Name: j.spec.Model}
		}
		entry, release, err := s.models.acquire(j.spec.Model)
		if err != nil {
			return nil, err
		}
		defer release()
		opts.Predictor = &sharedPredictor{entry: entry, calls: s.nnCalls}
		s.nnJobs.Inc()
	}
	if s.store != nil && s.opts.CheckpointEvery > 0 {
		// Durable resume point every CheckpointEvery iterations. The write
		// happens on the worker goroutine between iterations; a failed write
		// only widens the redo window after a crash.
		opts.CheckpointEvery = s.opts.CheckpointEvery
		opts.Checkpoint = func(cp *placer.Checkpoint) {
			b, err := json.Marshal(cp)
			if err == nil {
				err = s.store.WriteCheckpoint(j.ID(), b)
			}
			if err != nil {
				s.storeErrors.Inc()
				return
			}
			s.checkpoints.Inc()
		}
	}
	if j.spec.Trace {
		// Per-job trace: the tracer sees this engine's launches only while
		// this job runs (workers run one job at a time), so the trace window
		// is exactly the job. Detach before the engine returns to the pool.
		t := obs.NewTracer()
		j.setTracer(t)
		eng.SetTracer(t)
		defer eng.SetTracer(nil)
		opts.Tracer = t
	}
	p, err := placer.New(j.spec.Design, eng, opts)
	if err != nil {
		return nil, err
	}
	// Close on every exit path: a cancelled or timed-out run must return
	// its arena-backed scratch so the pooled engine's in-use bytes fall
	// back to the pre-job baseline.
	defer p.Close()
	res, err := p.RunContext(ctx)
	if errors.Is(err, placer.ErrDiverged) && opts.Strategy != placer.StrategyLBUB {
		// The gradient flow blew up on this input. Its failure profile is
		// disjoint from the LB/UB alternation's (quadratic solves clamped
		// into the region cannot explode), so re-run the job under lbub and
		// answer with a labeled draft-quality result instead of a failure.
		p.Close() // idempotent; return the diverged run's scratch now
		fopts := opts
		fopts.Strategy = placer.StrategyLBUB
		fopts.Resume = nil // lbub is not resumable; start the rescue fresh
		fp, ferr := placer.New(j.spec.Design, eng, fopts)
		if ferr == nil {
			defer fp.Close()
			fres, ferr := fp.RunContext(ctx)
			if ferr == nil {
				j.setFallback(placer.StrategyLBUB.String())
				s.fallbacks.Inc()
				return fres, nil
			}
		}
		// The fallback failed too: surface the original divergence (the
		// root cause), not the rescue attempt's error.
	}
	return res, err
}

func (j *Job) setFallback(strategy string) {
	j.mu.Lock()
	j.st.Fallback = strategy
	j.mu.Unlock()
}

// Draining reports whether Shutdown has begun (new submissions are being
// rejected with ErrDraining). Long-lived streams — the daemon's SSE
// handlers — poll this to close out before the drain finishes.
func (s *Scheduler) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Shutdown stops intake and drains the scheduler: queued and running jobs
// are allowed to finish until ctx is done, at which point every remaining
// job is cancelled. It returns once all workers have exited and the pooled
// engines are closed; the error is ctx.Err() when the drain was cut short.
//
// Shutdown is idempotent AND every call honors its own ctx: a repeat call
// whose ctx expires mid-drain cancels the remaining jobs and returns
// ctx.Err() instead of blocking unboundedly, and a repeat call after the
// drain completed returns the recorded first outcome rather than
// swallowing it.
func (s *Scheduler) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.queue) // workers exit after draining remaining jobs
		go func() {
			s.wg.Wait()
			close(s.drained)
		}()
	}
	s.mu.Unlock()

	recorded := func() error {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.drainErr
	}
	select {
	case <-s.drained:
		return recorded()
	case <-ctx.Done():
		select {
		case <-s.drained: // drain finished as ctx expired; its outcome stands
			return recorded()
		default:
		}
		// Record the cut-short outcome BEFORE cancelling, so every caller —
		// including one blocked on a still-valid ctx — reports the drain as
		// cut short once it unblocks.
		s.mu.Lock()
		if s.drainErr == nil {
			s.drainErr = ctx.Err()
		}
		s.mu.Unlock()
		for _, j := range s.Jobs() {
			s.Cancel(j.ID())
		}
		<-s.drained // cancellation aborts jobs between launches; workers exit
		return ctx.Err()
	}
}

// Counters returns the cumulative scheduler accounting (a typed view over
// the same registry-backed instruments /metrics scrapes).
func (s *Scheduler) Counters() Counters {
	return Counters{
		Submitted:  s.submitted.Value(),
		Rejected:   s.rejected.Value(),
		Succeeded:  s.succeeded.Value(),
		Failed:     s.failed.Value(),
		Canceled:   s.canceled.Value(),
		TimedOut:   s.timedOut.Value(),
		Active:     int64(s.active.Value()),
		Queued:     int64(len(s.queue)),
		Iterations: s.iterations.Value(),
		Launches:   s.launches.Value(),
	}
}
