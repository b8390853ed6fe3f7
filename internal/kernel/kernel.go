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
// LaunchSerial and the two-operator LaunchPair) goes through one dispatch
// routine, so the split into chunks, the barrier, panic containment and
// the accounting live in one place. The engine
// alone decides the split: chunk indices handed to a body are in
// [0, Chunks(n)) (LineChunks for a line pass), and operators size their
// per-chunk scratch by that count and nothing else. A launch's n counts
// what its body is split over: elements for Launch, LaunchChunks
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
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
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
// path both execute it with exec. Exactly one of body/chunked/reduce/serial
// is set.
type task struct {
	name     string // op the chunk belongs to
	part     int    // index of that op in its launch: 0, or 1 in a pair's second part
	body     func(start, end int)
	chunked  func(chunk, start, end int)
	reduce   func(start, end int) float64
	serial   func()
	partials []float64 // pooled reduce: one cache-line slot per chunk
	chunk    int
	lo, hi   int
	b        *barrier // the launch's barrier (pooled launches)
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

// exec runs the task's chunk and returns run's value, the chunk's run time
// and, when the chunk panicked, the recovered panic: the panic does not
// unwind the goroutine, so the launch's barrier still completes.
func (t *task) exec() (v float64, busy time.Duration, fault *LaunchPanic) {
	start := time.Now()
	defer func() {
		busy = time.Since(start)
		if r := recover(); r != nil {
			fault = &LaunchPanic{Op: t.name, Chunk: t.chunk, Value: r, Stack: debug.Stack()}
		}
	}()
	return t.run(), 0, nil
}

// barrier is one launch's join point: the WaitGroup its pooled chunks
// signal, each part's busy time (the summed run time of its chunks) and
// the panic of its lowest panicking (part, chunk), if any.
type barrier struct {
	wg        sync.WaitGroup
	busy      [2]atomic.Int64 // nanoseconds
	mu        sync.Mutex
	fault     *LaunchPanic
	faultPart int
}

func (b *barrier) fail(p *LaunchPanic, part int) {
	b.mu.Lock()
	if f := b.fault; f == nil || part < b.faultPart || part == b.faultPart && p.Chunk < f.Chunk {
		b.fault, b.faultPart = p, part
	}
	b.mu.Unlock()
}

// barrierPool recycles the barriers of pooled launches: one stored in a
// task sent to the pool would otherwise heap-allocate on every launch.
var barrierPool = sync.Pool{New: func() any { return new(barrier) }}

// LaunchPanic is what a launch panics with, on the launching goroutine and
// after its barrier, when one of its chunks panicked: the op and the chunk
// that raised it (the lowest chunk of the first part that did), the value
// it panicked with and that chunk's stack. Every other chunk has run, the
// launch is accounted and the engine stays usable.
type LaunchPanic struct {
	Op    string
	Chunk int
	Value any
	Stack []byte
}

func (p *LaunchPanic) Error() string {
	return fmt.Sprintf("kernel: %s chunk %d panicked: %v", p.Op, p.Chunk, p.Value)
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
		_, busy, fault := t.exec()
		t.b.busy[t.part].Add(int64(busy))
		if fault != nil {
			t.b.fail(fault, t.part)
		}
		t.b.wg.Done()
	}
}

func (p *pool) close() {
	close(p.tasks)
	p.done.Wait()
}

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

// Workers returns the engine's degree of parallelism. Operators size their
// per-chunk scratch by Chunks or LineChunks, never by this.
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

// OneBlock reports whether an nx × ny grid is small enough for one GPU
// thread block to hold and transform whole, so an operator may run every
// pass over it as one kernel: it is below minLineWork elements and each side
// below minParallel, so every LaunchLines over its rows or columns and every
// launch over its rows runs as one chunk on any engine. It depends on the
// size alone, never on Workers, so launch counts do not change from host to
// host. The bound it stands for: the largest such power-of-two grid, 64×128
// float64, is 64 KB, within the 99 KB of shared memory an RTX 3090 gives one
// block.
func OneBlock(nx, ny int) bool {
	return nx*ny < minLineWork && max(nx, ny) < minParallel
}

// reduceStride is the spacing, in float64 elements, between per-chunk
// partial slots in ParallelReduce: 8 float64 = 64 bytes = one cache line,
// so concurrent workers never write the same line.
const reduceStride = 8

// split cuts a launch over n items whose work is work into chunks
// contiguous chunks of size items (the last may be shorter):
// ceil(n/workers)-item chunks when work reaches minWork on an engine of
// more than one worker, one chunk of all n otherwise, none when n is 0.
// dispatch, Chunks and LineChunks all take the count from here.
func (e *Engine) split(n, work, minWork int) (chunks, size int) {
	switch {
	case n <= 0:
		return 0, 0
	case work < minWork || e.workers <= 1:
		return 1, n
	}
	size = (n + e.workers - 1) / e.workers
	return (n + size - 1) / size, size
}

// Chunks returns how many chunks a Launch, LaunchChunks or ParallelReduce
// over n elements runs as on this engine: the bound on every chunk index a
// body sees, and the count operators size their per-chunk scratch by (a
// closed engine runs one chunk, inside the bound).
func (e *Engine) Chunks(n int) int {
	c, _ := e.split(n, n, minParallel)
	return c
}

// LineChunks is Chunks for a LaunchLines over lines lines of lineLen
// elements each.
func (e *Engine) LineChunks(lines, lineLen int) int {
	c, _ := e.split(lines, lines*lineLen, minLineWork)
	return c
}

// op is one operator of a launch: its name, the n items and the work its
// split is decided on, and its task. dispatch fills in chunks and size.
type op struct {
	name             string
	n, work, minWork int
	t                task
	chunks, size     int
}

// Part is one operator of a LaunchPair: its name, the n elements it is
// split over and its chunked body, as LaunchChunks takes them.
type Part struct {
	Name string
	N    int
	Body func(chunk, lo, hi int)
}

// dispatch is the one launch path every flavour goes through. It marks the
// first op's name as the current op, takes each op's chunk count from
// split, decides once between the worker pool and the calling goroutine,
// waits on one barrier and accounts the launch. When an op splits into
// several chunks on an open engine, every chunk of every op goes on the
// pool; otherwise the ops run serially, one after the other, each as one
// chunk (index 0, range [0, n)): a pair of ops too small to split is no
// more worth a hop to the pool than one is.
// A reduce op's partials are folded with combine into acc in chunk order;
// only a pooled reduce checks its padded partial slots out of the arena.
// dispatch leaves each op's chunk count in ops and returns the folded
// value. A chunk's panic is re-raised here, after the barrier and the
// accounting, as a *LaunchPanic.
func (e *Engine) dispatch(ops []op, combine func(a, b float64) float64, acc float64) float64 {
	start := time.Now()
	e.begin(ops[0].name)
	total, splits := 0, false
	for i := range ops {
		o := &ops[i]
		o.chunks, o.size = e.split(o.n, o.work, o.minWork)
		total += o.chunks
		splits = splits || o.chunks > 1
	}
	var p *pool
	if splits {
		p = e.getPool() // nil when closed: serial
	}
	var busy [2]time.Duration
	var fault *LaunchPanic
	if p != nil {
		b := barrierPool.Get().(*barrier)
		for i := range ops {
			if o := &ops[i]; o.t.reduce != nil && o.chunks > 0 {
				// Partial slots are padded to cache-line stride: adjacent
				// float64 slots written by different workers would share a
				// cache line and ping-pong it between cores (false sharing;
				// see BenchmarkReducePartials* in pool_test.go for the delta).
				o.t.partials = e.Alloc(o.chunks * reduceStride)
			}
		}
		b.wg.Add(total)
		for i := range ops {
			o := &ops[i]
			t := o.t
			t.name, t.part, t.b = o.name, i, b
			for c := 0; c < o.chunks; c++ {
				t.chunk, t.lo, t.hi = c, c*o.size, min((c+1)*o.size, o.n)
				p.tasks <- t
			}
		}
		b.wg.Wait()
		e.putPool()
		for i := range ops {
			if o := &ops[i]; o.t.partials != nil {
				for c := 0; c < o.chunks; c++ {
					acc = combine(acc, o.t.partials[c*reduceStride])
				}
				e.Free(o.t.partials)
			}
		}
		busy = [2]time.Duration{time.Duration(b.busy[0].Swap(0)), time.Duration(b.busy[1].Swap(0))}
		fault, b.fault = b.fault, nil
		barrierPool.Put(b)
	} else {
		for i := range ops {
			o := &ops[i]
			o.chunks = min(o.chunks, 1)
			if o.n <= 0 {
				continue
			}
			t := o.t
			t.name, t.lo, t.hi = o.name, 0, o.n
			v, d, f := t.exec()
			busy[i] = d
			if fault == nil {
				fault = f
			}
			if t.reduce != nil {
				acc = combine(acc, v)
			}
		}
	}
	e.account(ops, start, time.Since(start), busy)
	if fault != nil {
		panic(fault)
	}
	return acc
}

// launch dispatches a single-op launch and returns its chunk count and
// folded value.
func (e *Engine) launch(name string, n, work, minWork int, t task, combine func(a, b float64) float64, acc float64) (int, float64) {
	ops := [1]op{{name: name, n: n, work: work, minWork: minWork, t: t}}
	acc = e.dispatch(ops[:], combine, acc)
	return ops[0].chunks, acc
}

// Launch runs body over the index range [0, n) as one kernel named name.
// The range is split into Chunks(n) contiguous chunks, executed by the
// persistent pool. Launch blocks until the kernel completes
// (stream-ordered execution).
func (e *Engine) Launch(name string, n int, body func(start, end int)) {
	e.launch(name, n, n, minParallel, task{body: body}, nil, 0)
}

// LaunchChunks runs body over [0, n) as one kernel, passing each chunk its
// index so callers can keep private partial accumulators (the paper's
// atomics-free reduction pattern). Chunk indices are in [0, Chunks(n));
// with small n only chunk 0 runs. Returns the number of chunks used.
func (e *Engine) LaunchChunks(name string, n int, body func(chunk, start, end int)) int {
	used, _ := e.launch(name, n, n, minParallel, task{chunked: body}, nil, 0)
	return used
}

// LaunchPair runs two independent operators as one kernel: a horizontally
// fused launch whose blocks do one job or the other. Each part is split as
// LaunchChunks would split it alone, so its bodies see the chunk indices,
// ranges and scratch they would see there, and all chunks of both parts
// wait on one barrier: on the pool when a part splits into several chunks,
// and otherwise — both parts below the parallel threshold, or a one-worker
// or closed engine — back to back on the calling goroutine, a then b. The pair is one launch: its
// barrier-to-barrier time is its compute, split between the two ops by
// their parts' busy time, and each op's Launches counts it; arena checkouts
// during it are a's. The bodies must not write what the other part reads.
// Returns the chunks each part used.
func (e *Engine) LaunchPair(a, b Part) (usedA, usedB int) {
	ops := [2]op{
		{name: a.Name, n: a.N, work: a.N, minWork: minParallel, t: task{chunked: a.Body}},
		{name: b.Name, n: b.N, work: b.N, minWork: minParallel, t: task{chunked: b.Body}},
	}
	e.dispatch(ops[:], nil, 0)
	return ops[0].chunks, ops[1].chunks
}

// LaunchLines runs body over lines [0, lines) of lineLen elements each as
// one kernel: a row or column pass of a 2-D transform, whose few lines each
// carry a whole 1-D transform. It passes chunk indices as LaunchChunks
// does, in [0, LineChunks(lines, lineLen)), and fans out when there are at
// least two lines and lines*lineLen reaches minLineWork, however few lines
// that is (one line is one chunk). Returns the number of chunks used.
func (e *Engine) LaunchLines(name string, lines, lineLen int, body func(chunk, start, end int)) int {
	used, _ := e.launch(name, lines, lines*lineLen, minLineWork, task{chunked: body}, nil, 0)
	return used
}

// LaunchSerial runs body as one kernel on the calling goroutine. Use it for
// operators whose body is inherently sequential (e.g. a scalar update); it
// still costs one launch.
func (e *Engine) LaunchSerial(name string, body func()) {
	e.launch(name, 1, 1, minParallel, task{serial: body}, nil, 0)
}

// ParallelReduce runs body over [0, n) with one private accumulator per
// chunk and folds the partials with combine, all as a single kernel. The
// partial buffer is checked out of the engine arena, so steady-state
// reductions are allocation-free.
func (e *Engine) ParallelReduce(name string, n int, init float64,
	body func(start, end int) float64, combine func(a, b float64) float64) float64 {
	_, result := e.launch(name, n, n, minParallel, task{reduce: body}, combine, init)
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

// account books one launch of ops that took d from start: one launch and
// d of compute on the engine clock, and for each op one launch and its
// share of d, which is all of it for a single op and, for a pair, d split
// in proportion to the parts' busy time (evenly when neither was busy), so
// per-op compute still sums to the engine's. The tracer gets one kernel
// span; a pair's is named "a+b".
func (e *Engine) account(ops []op, start time.Time, d time.Duration, busy [2]time.Duration) {
	share := [2]time.Duration{d}
	if len(ops) == 2 {
		share[0] = d / 2
		if sum := busy[0] + busy[1]; sum > 0 {
			share[0] = time.Duration(float64(d) * float64(busy[0]) / float64(sum))
		}
		share[1] = d - share[0]
	}
	e.mu.Lock()
	// The launch's position on the simulated clock is the clock value
	// before this launch's own cost is added.
	simTS := e.compute + time.Duration(e.launches)*e.overhead
	e.launches++
	e.compute += d
	e.curOp = ""
	for i := range ops {
		st := e.perOp[ops[i].name]
		if st == nil {
			st = &OpStats{}
			e.perOp[ops[i].name] = st
		}
		st.Launches++
		st.Compute += share[i]
	}
	tr := e.tracer
	e.mu.Unlock()
	if tr != nil {
		name := ops[0].name
		if len(ops) == 2 {
			name += "+" + ops[1].name
		}
		tr.Kernel(name, start, d, simTS, d+e.overhead)
	}
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
