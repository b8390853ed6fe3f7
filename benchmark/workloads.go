package main

import (
	"encoding/binary"
	"hash/fnv"
	"time"
)

// Fixed settings of every in-process engine: two workers regardless of
// nproc (chunk boundaries fix the floating-point summation order, and with
// it iteration and launch counts) and a 150µs simulated launch cost.
const (
	engineWorkers  = 2
	launchOverhead = 150 * time.Microsecond
	stopOverflow   = 0.07 // sched default; a to-convergence run must end at or below it
	warmupIters    = 10   // discarded warm-up run: arena misses and pool spin-up
)

// metricDef is one BENCHMARK.json metric. Bound is the share of the
// parent's median by which an end-to-end metric may worsen before a change
// counts as a regression; per-layer metrics carry none.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

// endToEnd lists the client-observed metrics. Every workload reports every
// one of them: an "operation" is one Session.Place call (gp-*), one
// Session.Flow call (flow-full) or one fresh job from its due time to its
// done event (serve-open).
//
// The times are the fastest repetition, not the median: on the shared
// sandbox this was written on, one unchanged placement alternates between
// two speeds 1.45x apart in stretches of seconds, so the median of a 15 s
// window spreads 0.19 between windows of identical work and its minimum
// 0.02 (README.md, "Why the fastest repetition"). The medians are per-layer
// metrics (bench.op_p50_ms, serve.*_p50_ms). The bounds of the counts and
// of hpwl are three times their spread across the designs of ten seeds.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"op_best_ms", "ms", "lower", 0.25},
	{"gp_best_ms", "ms", "lower", 0.25},
	{"gp_iters", "count", "lower", 0.10},
	{"gp_launches", "count", "lower", 0.10},
	{"hpwl", "hpwl", "lower", 0.25},
}

// perLayer lists the traced-run metrics, layer = module name. A workload
// that does not run a layer reports 0 for it.
var perLayer = []metricDef{
	{Name: "kernel.launch_cost_share", Unit: "share", Better: "lower"},
	{Name: "kernel.host_share", Unit: "share", Better: "lower"},
	{Name: "kernel.compute_s", Unit: "s", Better: "lower"},
	{Name: "kernel.sim_s", Unit: "s", Better: "lower"},
	{Name: "kernel.syncs", Unit: "count", Better: "lower"},
	{Name: "kernel.arena_peak_bytes", Unit: "bytes", Better: "lower"},
	{Name: "kernel.arena_misses", Unit: "count", Better: "lower"},
	{Name: "kernel.dispatch_us", Unit: "us", Better: "lower"},
	{Name: "wirelength.share", Unit: "share", Better: "lower"},
	{Name: "wirelength.fused_us", Unit: "us", Better: "lower"},
	{Name: "wirelength.hpwl_us", Unit: "us", Better: "lower"},
	{Name: "wirelength.ns_per_pin", Unit: "ns", Better: "lower"},
	{Name: "field.share", Unit: "share", Better: "lower"},
	{Name: "field.scatter_us", Unit: "us", Better: "lower"},
	{Name: "field.gather_us", Unit: "us", Better: "lower"},
	{Name: "field.overflow_us", Unit: "us", Better: "lower"},
	{Name: "dct.share", Unit: "share", Better: "lower"},
	{Name: "dct.solve_us", Unit: "us", Better: "lower"},
	{Name: "dct.dct2_us", Unit: "us", Better: "lower"},
	{Name: "dct.field_eval_us", Unit: "us", Better: "lower"},
	{Name: "dct.ns_per_bin", Unit: "ns", Better: "lower"},
	{Name: "backend.f32_solve_ratio", Unit: "ratio", Better: "lower"},
	{Name: "backend.f32_gp_ratio", Unit: "ratio", Better: "lower"},
	{Name: "optim.share", Unit: "share", Better: "lower"},
	{Name: "optim.step_us", Unit: "us", Better: "lower"},
	{Name: "sched.density_evals", Unit: "count", Better: "lower"},
	{Name: "sched.density_skips", Unit: "count", Better: "higher"},
	{Name: "placer.share", Unit: "share", Better: "lower"},
	{Name: "placer.new_ms", Unit: "ms", Better: "lower"},
	{Name: "placer.first_progress_ms", Unit: "ms", Better: "lower"},
	{Name: "placer.iter_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "placer.iter_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "placer.checkpoint_encode_ms", Unit: "ms", Better: "lower"},
	{Name: "placer.gp_hpwl", Unit: "hpwl", Better: "lower"},
	{Name: "nn.forward_ms", Unit: "ms", Better: "lower"},
	{Name: "nn.calls", Unit: "count", Better: "lower"},
	{Name: "nn.host_s", Unit: "s", Better: "lower"},
	{Name: "nn.share", Unit: "share", Better: "lower"},
	{Name: "legal.tetris_ms", Unit: "ms", Better: "lower"},
	{Name: "legal.abacus_ms", Unit: "ms", Better: "lower"},
	{Name: "legal.displacement_avg", Unit: "dbu", Better: "lower"},
	{Name: "detail.run_s", Unit: "s", Better: "lower"},
	{Name: "detail.flow_share", Unit: "share", Better: "lower"},
	{Name: "detail.hpwl_gain", Unit: "share", Better: "higher"},
	{Name: "detail.hpwl_distinct", Unit: "count", Better: "lower"},
	{Name: "router.route_ms", Unit: "ms", Better: "lower"},
	{Name: "router.ovfl5", Unit: "tracks", Better: "lower"},
	{Name: "jobapi.tospec_ms", Unit: "ms", Better: "lower"},
	{Name: "jobstore.append_us", Unit: "us", Better: "lower"},
	{Name: "jobstore.checkpoint_ms", Unit: "ms", Better: "lower"},
	{Name: "jobstore.put_result_ms", Unit: "ms", Better: "lower"},
	{Name: "jobstore.get_result_us", Unit: "us", Better: "lower"},
	{Name: "jobstore.recover_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.queue_wait_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.run_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.cache_hit_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.sat_jobs_per_s", Unit: "1/s", Better: "higher"},
	{Name: "serve.nn_solo_job_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.nn_pair_job_ms", Unit: "ms", Better: "lower"},
	{Name: "gateway.submit_rtt_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "gateway.overhead_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "gateway.job_tail_ms", Unit: "ms", Better: "lower"},
	{Name: "gateway.ttfs_tail_ms", Unit: "ms", Better: "lower"},
	{Name: "gateway.tail_pct", Unit: "%", Better: "higher"},
	{Name: "gateway.node_share_max", Unit: "share", Better: "lower"},
	{Name: "gateway.spills", Unit: "count", Better: "lower"},
	{Name: "gateway.retries", Unit: "count", Better: "lower"},
	{Name: "gen.late_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "obs.trace_overhead_share", Unit: "share", Better: "lower"},
	{Name: "bench.trace_overhead_share", Unit: "share", Better: "lower"},
	{Name: "bench.op_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "proc.peak_rss_mb", Unit: "MB", Better: "lower"},
}

// inprocConfig sizes one in-process workload. Every operation places one
// design of the corpus; corpus designs differ only in their derived seed.
type inprocConfig struct {
	bench   string
	scale   float64
	grid    int  // 0 = the placer's automatic choice
	maxIter int  // 0 = run to the overflow target
	corpus  int  // designs per run; medians over more designs are steadier across seeds
	timed   int  // the first timed designs are repeated round after round, the others placed once
	nn      bool // blend a field predictor trained in set-up
	flow    bool // Session.Flow (GP, Tetris, detail, route) in place of Session.Place

	f32Probe    bool // traced run also measures the float32 backend (backend.*)
	tracerProbe bool // traced run also measures the in-program tracer (obs.trace_overhead_share)

	// Scale of the adaptec1 design detail.hpwl_distinct is counted on, 0 for
	// none. flow-full's own fft_1 designs hide detail.Run's map-order hole
	// (one distinct result in 10 calls on 4 of 5 seeds); a converged
	// adaptec1 x 0.02 placement gave 3 distinct results in 3 calls on each
	// of seeds 1-6, at 4 s of GP and 6 s per call.
	detailProbeScale float64
}

// workload is one named set of inputs. why is the one-line reason the
// workload exists; it is copied into BENCHMARK.json.
type workload struct {
	name   string
	why    string
	inproc *inprocConfig // nil for serve-open
}

// workloads are sized so one operation takes 0.1–1 s on a 2-core sandbox:
// an 18 s run then repeats each timed design 5–9 times. The sizes the issue
// proposed (4 s operations, 5 per run) do not fit the driver's time cap;
// see README.md for the mapping.
var workloads = []workload{
	{
		name:   "gp-small",
		why:    "856 cells to convergence: launch cost is most of the simulated clock, so operator combination, extraction and skipping show here",
		inproc: &inprocConfig{bench: "adaptec1", scale: 0.004, corpus: 10, timed: 6, tracerProbe: true},
	},
	{
		name:   "gp-spectral",
		why:    "2.1k cells on a 512x512 grid, 30 iterations: the DCT Poisson solve does most of the work, so an FFT, float32 or truncation change must show here",
		inproc: &inprocConfig{bench: "adaptec1", scale: 0.01, grid: 512, maxIter: 30, corpus: 6, timed: 3, f32Probe: true},
	},
	{
		name:   "gp-cells",
		why:    "53k cells on a 64x64 grid, 30 iterations: wirelength and density scatter/gather do the work, DCT and launch cost are bypassed",
		inproc: &inprocConfig{bench: "adaptec1", scale: 0.25, grid: 64, maxIter: 30, corpus: 3, timed: 3},
	},
	{
		name:   "gp-nn",
		why:    "gp-small designs with an FNO field predictor blended in, 50 iterations: the only workload where host-side nn inference dominates the wall clock",
		inproc: &inprocConfig{bench: "adaptec1", scale: 0.004, maxIter: 50, corpus: 8, timed: 4, nn: true},
	},
	{
		name:   "flow-full",
		why:    "1.2k-cell ISPD-2015-style design through GP, Tetris, detailed placement and routing: the only workload that runs legal, detail and router",
		inproc: &inprocConfig{bench: "fft_1", scale: 0.035, corpus: 6, timed: 3, flow: true, detailProbeScale: 0.02},
	},
	{
		name: "serve-open",
		why:  "open-loop 5 jobs/s through the xgate gateway over two xserve processes, cache reads beside fresh writes: the client-observed path through gateway, serve, jobstore and placer",
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// deriveSeed maps (run seed, stream name, index) to a positive 31-bit design or
// job seed. It is a pure function, so the same --seed always
// generates the same inputs, and distinct streams never share a seed.
func deriveSeed(seed int64, stream string, i int) int64 {
	h := fnv.New64a()
	var buf [16]byte
	binary.LittleEndian.PutUint64(buf[:8], uint64(seed))
	binary.LittleEndian.PutUint64(buf[8:], uint64(i))
	h.Write(buf[:])
	h.Write([]byte(stream))
	return int64(h.Sum64()%(1<<31-1)) + 1
}
