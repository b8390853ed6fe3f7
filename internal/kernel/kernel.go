// Package kernel provides the execution substrate that stands in for the
// GPU in this reproduction. Every heavy placement operator runs through an
// Engine as a named "kernel": the body is executed data-parallel over a
// persistent worker pool (the CUDA grid on a persistent stream), and the
// Engine charges each launch a configurable overhead on a simulated-time
// clock (the CUDA kernel-launch latency the paper's §3.1.3 analysis is
// about).
//
// Two clocks are kept:
//
//   - Compute time: real wall time spent inside kernel bodies, i.e. the
//     parallel execution time.
//   - Simulated time: compute time plus Launches x LaunchOverhead. This is
//     the quantity that reproduces the paper's per-iteration timing shape:
//     fusing K operators into one kernel removes (K-1) launch overheads by
//     construction, and skipping the autograd engine halves the launch
//     count of small operators.
//
// The execution substrate is device-like in two further ways:
//
//   - Workers are long-lived goroutines created on first parallel dispatch
//     and torn down by Close — launches enqueue chunks on a channel instead
//     of spawning goroutines, so dispatch cost does not scale with launch
//     count (the paper's "persistent stream" regime).
//   - The Engine owns a buffer Arena (the "device memory allocator"):
//     operators check scratch out with Alloc/Free instead of calling make()
//     per iteration, and the Stats report arena hits/misses/peak plus
//     per-op checkout counts.
//
// Every launch flavour (Launch, LaunchChunks, ParallelReduce, LaunchLines,
// LaunchSerial) goes through one dispatch routine, so the split into
// chunks, the barrier and the accounting live in one place. A launch's n
// counts what its body is split over: elements for Launch, LaunchChunks
// and ParallelReduce, which fan out from minParallel elements, and whole
// lines for LaunchLines, which fans out from minLineWork elements of line
// work. Host-device synchronization points are counted with Sync; the
// placer's §3.1.3 sync reordering issues its one deferred metric record at
// the end of each GP iteration. An attached obs.Tracer records every
// launch by name.
package kernel

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"xplace/internal/obs"
)

// DefaultLaunchOverhead is the simulated cost of one kernel launch. 6 us is
// a typical CUDA launch latency on the hardware generation the paper used.
const DefaultLaunchOverhead = 6 * time.Microsecond

// Options configures an Engine.
type Options struct {
	// Workers is the degree of parallelism. 0 means runtime.NumCPU().
	Workers int
	// LaunchOverhead is the simulated per-launch cost added to the
	// simulated clock. Negative means DefaultLaunchOverhead; zero disables
	// the launch-cost model.
	LaunchOverhead time.Duration
}

// OpStats aggregates per-kernel-name accounting.
type OpStats struct {
	Launches int64
	Compute  time.Duration
	// Allocs counts arena checkouts attributed to this op (checkouts made
	// while the op was the engine's current launch).
	Allocs int64
}

// HostOp is the pseudo-op name arena checkouts are attributed to when they
// happen outside any kernel launch.
const HostOp = "(host)"

// Stats is a snapshot of an Engine's accounting.
type Stats struct {
	Launches  int64
	Compute   time.Duration
	Syncs     int64
	PerOp     map[string]OpStats
	Overhead  time.Duration // LaunchOverhead used
	Simulated time.Duration // Compute + Launches*Overhead
	Arena     ArenaStats    // buffer-arena accounting
}

// String renders a human-readable summary, most expensive ops first.
func (s Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "launches=%d syncs=%d compute=%v simulated=%v\n",
		s.Launches, s.Syncs, s.Compute, s.Simulated)
	fmt.Fprintf(&b, "%s\n", s.Arena)
	type row struct {
		name string
		st   OpStats
	}
	rows := make([]row, 0, len(s.PerOp))
	for name, st := range s.PerOp {
		rows = append(rows, row{name, st})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].st.Compute > rows[j].st.Compute })
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-32s launches=%-8d allocs=%-6d compute=%v\n",
			r.name, r.st.Launches, r.st.Allocs, r.st.Compute)
	}
	return b.String()
}

// task is one chunk of a kernel launch: the pool workers and the serial
// path both execute it with run. Exactly one of body/chunked/reduce/serial
// is set.
type task struct {
	body     func(start, end int)
	chunked  func(chunk, start, end int)
	reduce   func(start, end int) float64
	serial   func()
	partials []float64 // pooled reduce: one cache-line slot per chunk
	chunk    int
	lo, hi   int
	wg       *sync.WaitGroup // pooled launches only
}

// run executes the task's chunk and returns a reduce body's partial (0 for
// the other flavours), also storing it in the chunk's partial slot when the
// launch is pooled.
func (t *task) run() float64 {
	switch {
	case t.body != nil:
		t.body(t.lo, t.hi)
	case t.chunked != nil:
		t.chunked(t.chunk, t.lo, t.hi)
	case t.reduce != nil:
		v := t.reduce(t.lo, t.hi)
		if t.partials != nil {
			t.partials[t.chunk*reduceStride] = v
		}
		return v
	default:
		t.serial()
	}
	return 0
}

// pool is the persistent worker set: long-lived goroutines draining a task
// channel. Created lazily on the first parallel dispatch, torn down by
// Engine.Close (or the engine finalizer).
type pool struct {
	tasks chan task
	done  sync.WaitGroup
}

func newPool(workers int) *pool {
	p := &pool{tasks: make(chan task, workers)}
	p.done.Add(workers)
	for i := 0; i < workers; i++ {
		go p.run()
	}
	return p
}

func (p *pool) run() {
	defer p.done.Done()
	for t := range p.tasks {
		t.run()
		t.wg.Done()
	}
}

func (p *pool) close() {
	close(p.tasks)
	p.done.Wait()
}

// wgPool recycles the per-launch WaitGroups: &wg stored in a task would
// otherwise escape and heap-allocate on every pooled launch.
var wgPool = sync.Pool{New: func() any { return new(sync.WaitGroup) }}

// Engine executes kernels. It is safe for concurrent use by the recorder
// and evaluator goroutines, but kernels themselves are expected to be
// launched from a single placement loop (as on a single CUDA stream);
// kernel bodies must not launch kernels of their own.
type Engine struct {
	workers  int
	overhead time.Duration
	arena    Arena

	poolMu   sync.Mutex
	pool     *pool
	closed   bool
	inflight sync.WaitGroup // launches holding a pool reference (getPool/putPool)

	mu       sync.Mutex
	launches int64
	compute  time.Duration
	syncs    int64
	perOp    map[string]*OpStats
	curOp    string      // op name arena checkouts are attributed to
	tracer   *obs.Tracer // span tracer; nil when tracing is off
}

// New returns an Engine with the given options. Workers are not spawned
// until the first launch large enough to go parallel; call Close to tear
// them down (a finalizer closes leaked engines' pools on GC).
func New(opts Options) *Engine {
	w := opts.Workers
	if w <= 0 {
		w = runtime.NumCPU()
	}
	ov := opts.LaunchOverhead
	if ov < 0 {
		ov = DefaultLaunchOverhead
	}
	e := &Engine{
		workers:  w,
		overhead: ov,
		perOp:    make(map[string]*OpStats),
	}
	runtime.SetFinalizer(e, (*Engine).Close)
	return e
}

// Workers returns the engine's degree of parallelism.
func (e *Engine) Workers() int { return e.workers }

// Closed reports whether Close has run: the worker pool is gone and any
// further launches execute serially on the calling goroutine. Used by
// engine-ownership tests (a Session closes only engines it created).
func (e *Engine) Closed() bool {
	e.poolMu.Lock()
	defer e.poolMu.Unlock()
	return e.closed
}

// getPool returns the worker pool, spawning it on first use, and registers
// the calling launch as in-flight; the caller must pair a non-nil return
// with putPool once it has finished enqueuing and waiting. It returns nil
// when the engine is closed: launches then fall back to serial execution on
// the calling goroutine.
func (e *Engine) getPool() *pool {
	e.poolMu.Lock()
	defer e.poolMu.Unlock()
	if e.closed {
		return nil
	}
	if e.pool == nil {
		e.pool = newPool(e.workers)
	}
	// Registered under poolMu while closed is still false, so Close (which
	// flips closed under the same lock before waiting) either sees this
	// launch in the count or the launch sees closed and goes serial — the
	// task channel can never be closed mid-send.
	e.inflight.Add(1)
	return e.pool
}

// putPool releases the in-flight registration taken by a non-nil getPool.
func (e *Engine) putPool() { e.inflight.Done() }

// Close tears down the worker pool and drops the arena's pooled buffers.
// It first waits for in-flight launches to finish enqueuing, so a Launch
// racing with Close can never send on the closed task channel. After Close
// the engine remains usable: launches execute serially on the calling
// goroutine (and are still accounted). Close is idempotent.
func (e *Engine) Close() {
	e.poolMu.Lock()
	p := e.pool
	e.pool = nil
	e.closed = true
	e.poolMu.Unlock()
	e.inflight.Wait()
	if p != nil {
		p.close()
	}
	e.arena.release()
}

// minParallel is the smallest element count n worth fanning out over the
// worker pool for Launch, LaunchChunks and ParallelReduce, whose n counts
// loop iterations of one element each; below it the launch runs on the
// calling goroutine (still counted as one launch — a tiny CUDA kernel still
// pays its launch cost).
const minParallel = 2048

// minLineWork is the smallest line-pass work, lines × line length, worth
// fanning out for LaunchLines, whose n counts whole lines (one 1-D
// transform each). On a 2-worker engine a pooled Poisson solve
// (BenchmarkPoissonSolve in internal/field) takes ~0.67 of the serial time
// at 128x128 (2^14) and ~0.57 at 512x512; at 64x64 (2^12) the gain is
// within the benchmark's noise, so those grids stay serial.
const minLineWork = 1 << 14

// reduceStride is the spacing, in float64 elements, between per-worker
// partial slots in ParallelReduce: 8 float64 = 64 bytes = one cache line,
// so concurrent workers never write the same line.
const reduceStride = 8

// chunkBounds returns the [lo, hi) range of chunk w when n items are split
// over e.workers contiguous chunks; ok is false past the last chunk.
func (e *Engine) chunkBounds(w, n int) (lo, hi int, ok bool) {
	chunk := (n + e.workers - 1) / e.workers
	lo = w * chunk
	if lo >= n {
		return 0, 0, false
	}
	hi = lo + chunk
	if hi > n {
		hi = n
	}
	return lo, hi, true
}

// dispatch is the one launch path every flavour goes through. It marks
// name as the current op, decides once between the worker pool and the
// calling goroutine, walks the chunk bounds once, waits on one barrier and
// accounts the launch. The launch is pooled when work reaches minWork on
// an open engine of more than one worker; otherwise it runs serially (one
// chunk, index 0, range [0, n)).
// A reduce task's partials are folded with combine into acc in chunk order;
// only a pooled reduce checks its padded partial slots out of the arena.
// dispatch returns the number of chunks run and the folded value.
func (e *Engine) dispatch(name string, n, work, minWork int, t task, combine func(a, b float64) float64, acc float64) (int, float64) {
	start := time.Now()
	used := 0
	e.begin(name)
	var p *pool
	if work >= minWork && e.workers > 1 {
		p = e.getPool()
	}
	switch {
	case p != nil:
		if t.reduce != nil {
			// Partial slots are padded to cache-line stride: adjacent
			// float64 slots written by different workers would share a
			// cache line and ping-pong it between cores (false sharing;
			// see BenchmarkReducePartials* in pool_test.go for the delta).
			t.partials = e.Alloc(e.workers * reduceStride)
		}
		wg := wgPool.Get().(*sync.WaitGroup)
		t.wg = wg
		for w := 0; w < e.workers; w++ {
			lo, hi, ok := e.chunkBounds(w, n)
			if !ok {
				break
			}
			t.chunk, t.lo, t.hi = w, lo, hi
			wg.Add(1)
			used++
			p.tasks <- t
		}
		wg.Wait()
		wgPool.Put(wg)
		e.putPool()
		if t.reduce != nil {
			for w := 0; w < used; w++ {
				acc = combine(acc, t.partials[w*reduceStride])
			}
			e.Free(t.partials)
		}
	case n > 0:
		t.lo, t.hi = 0, n
		if v := t.run(); t.reduce != nil {
			acc = combine(acc, v)
		}
		used = 1
	}
	e.account(name, start, time.Since(start))
	return used, acc
}

// Launch runs body over the index range [0, n) as one kernel named name.
// The range is split into contiguous chunks, one per worker, executed by
// the persistent pool. Launch blocks until the kernel completes
// (stream-ordered execution).
func (e *Engine) Launch(name string, n int, body func(start, end int)) {
	e.dispatch(name, n, n, minParallel, task{body: body}, nil, 0)
}

// LaunchChunks runs body over [0, n) as one kernel, passing each worker its
// chunk index so callers can keep private partial accumulators (the
// paper's atomics-free reduction pattern). Chunk indices are in
// [0, Workers()); with small n only chunk 0 runs. Returns the number of
// chunks used.
func (e *Engine) LaunchChunks(name string, n int, body func(chunk, start, end int)) int {
	used, _ := e.dispatch(name, n, n, minParallel, task{chunked: body}, nil, 0)
	return used
}

// LaunchLines runs body over lines [0, lines) of lineLen elements each as
// one kernel: a row or column pass of a 2-D transform, whose few lines each
// carry a whole 1-D transform. It passes chunk indices as LaunchChunks
// does, over the same chunks when pooled, and fans out when there are at
// least two lines and lines*lineLen reaches minLineWork, however few lines
// that is. Returns the number of chunks used.
func (e *Engine) LaunchLines(name string, lines, lineLen int, body func(chunk, start, end int)) int {
	work := 0
	if lines >= 2 {
		work = lines * lineLen
	}
	used, _ := e.dispatch(name, lines, work, minLineWork, task{chunked: body}, nil, 0)
	return used
}

// LaunchSerial runs body as one kernel on the calling goroutine. Use it for
// operators whose body is inherently sequential (e.g. a scalar update); it
// still costs one launch.
func (e *Engine) LaunchSerial(name string, body func()) {
	e.dispatch(name, 1, 1, minParallel, task{serial: body}, nil, 0)
}

// ParallelReduce runs body over [0, n) with one private accumulator per
// worker and folds the partials with combine, all as a single kernel. The
// partial buffer is checked out of the engine arena, so steady-state
// reductions are allocation-free.
func (e *Engine) ParallelReduce(name string, n int, init float64,
	body func(start, end int) float64, combine func(a, b float64) float64) float64 {
	_, result := e.dispatch(name, n, n, minParallel, task{reduce: body}, combine, init)
	return result
}

// Alloc checks a zeroed []float64 of length n out of the engine arena (the
// "device memory" of the substitution map). Return it with Free when done;
// after warm-up, checkouts are served from free lists without touching the
// Go heap. The checkout is attributed to the currently launching op (or
// HostOp between launches) in the per-op stats.
func (e *Engine) Alloc(n int) []float64 {
	e.noteAlloc()
	return e.arena.Alloc(n)
}

// Free returns a buffer obtained from Alloc to the arena.
func (e *Engine) Free(buf []float64) { e.arena.Free(buf) }

// AllocComplex checks a zeroed []complex128 of length n out of the arena.
func (e *Engine) AllocComplex(n int) []complex128 {
	e.noteAlloc()
	return e.arena.AllocComplex(n)
}

// FreeComplex returns a buffer obtained from AllocComplex to the arena.
func (e *Engine) FreeComplex(buf []complex128) { e.arena.FreeComplex(buf) }

// Alloc32 checks a zeroed []float32 of length n out of the arena (the
// float32 backend's element type).
func (e *Engine) Alloc32(n int) []float32 {
	e.noteAlloc()
	return e.arena.Alloc32(n)
}

// Free32 returns a buffer obtained from Alloc32 to the arena.
func (e *Engine) Free32(buf []float32) { e.arena.Free32(buf) }

// ArenaStats returns a snapshot of the buffer-arena accounting.
func (e *Engine) ArenaStats() ArenaStats { return e.arena.Stats() }

func (e *Engine) noteAlloc() {
	e.mu.Lock()
	name := e.curOp
	if name == "" {
		name = HostOp
	}
	st := e.perOp[name]
	if st == nil {
		st = &OpStats{}
		e.perOp[name] = st
	}
	st.Allocs++
	e.mu.Unlock()
}

// begin marks name as the current op for arena-checkout attribution.
func (e *Engine) begin(name string) {
	e.mu.Lock()
	e.curOp = name
	e.mu.Unlock()
}

// Sync records one host-device synchronization point: one per metric on
// the baseline path, one per iteration after the deferred record on the
// reordered path.
func (e *Engine) Sync() {
	e.mu.Lock()
	e.syncs++
	e.mu.Unlock()
}

// SetTracer attaches (or, with nil, detaches) a span tracer: every
// subsequent launch is recorded with its wall start/duration and its
// position on the simulated clock. The engine does not own the tracer —
// callers attach one per traced window (e.g. one per serve job) and
// export it themselves.
func (e *Engine) SetTracer(t *obs.Tracer) {
	e.mu.Lock()
	e.tracer = t
	e.mu.Unlock()
}

func (e *Engine) account(name string, start time.Time, d time.Duration) {
	e.mu.Lock()
	// The launch's position on the simulated clock is the clock value
	// before this launch's own cost is added.
	simTS := e.compute + time.Duration(e.launches)*e.overhead
	e.launches++
	e.compute += d
	e.curOp = ""
	st := e.perOp[name]
	if st == nil {
		st = &OpStats{}
		e.perOp[name] = st
	}
	st.Launches++
	st.Compute += d
	tr := e.tracer
	e.mu.Unlock()
	tr.Kernel(name, start, d, simTS, d+e.overhead)
}

// SimulatedTime returns the simulated clock (compute plus launch cost)
// without snapshotting the per-op map — an allocation-free alternative to
// Stats().Simulated for per-iteration bookkeeping.
func (e *Engine) SimulatedTime() time.Duration {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.compute + time.Duration(e.launches)*e.overhead
}

// Stats returns a snapshot of the accounting since the last Reset.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	per := make(map[string]OpStats, len(e.perOp))
	for k, v := range e.perOp {
		per[k] = *v
	}
	s := Stats{
		Launches:  e.launches,
		Compute:   e.compute,
		Syncs:     e.syncs,
		PerOp:     per,
		Overhead:  e.overhead,
		Simulated: e.compute + time.Duration(e.launches)*e.overhead,
	}
	e.mu.Unlock()
	s.Arena = e.arena.Stats()
	return s
}

// Reset clears all accounting and zeroes the arena's flow
// counters (pooled buffers are kept warm). The worker pool is untouched.
func (e *Engine) Reset() {
	e.mu.Lock()
	e.launches, e.compute, e.syncs = 0, 0, 0
	e.perOp = make(map[string]*OpStats)
	e.curOp = ""
	e.mu.Unlock()
	e.arena.resetCounters()
}
