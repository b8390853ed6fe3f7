// Command benchmark is the repository's benchmark: six named workloads,
// client-observed end-to-end metrics measured with tracing off, and a
// separate traced run that breaks the same work down by layer. See
// README.md in this directory and BENCHMARK.json at the repository root.
//
//	go run ./benchmark                                   all six workloads, untraced
//	go run ./benchmark --trace 1                         all six, traced (per-layer metrics)
//	go run ./benchmark --workload gp-small --seed 3      one workload
//	go run ./benchmark -out A.json                       also write the record -compare reads
//	go run ./benchmark -compare A.json B.json            apply each metric's bound
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"sync"
	"syscall"
	"time"
)

const defaultSeconds = 18 // BENCHMARK.json run_seconds

// runConfig is one run's settings, from the command line.
type runConfig struct {
	seed     int64
	seconds  time.Duration
	trace    bool
	ports    string
	buildDir string
	smoke    bool // tests only: one small design per corpus and a reduced iteration cap
}

// runResult is what one run of one workload produced.
type runResult struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Trace     bool               `json:"trace"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Problems  []string           `json:"problems,omitempty"`
	E2E       map[string]summary `json:"end_to_end,omitempty"`
	Layer     map[string]float64 `json:"per_layer,omitempty"`
	SelfTimeS map[string]float64 `json:"self_time_s,omitempty"` // traced run: per span name, duration minus children

	rec *recorder  // the traced run's spans
	ops []opResult // the untraced in-process operations (tests read their engine accounting)
}

func newRunResult(name string, rc runConfig) *runResult {
	return &runResult{
		Workload: name, Seed: rc.seed, Seconds: rc.seconds.Seconds(), Trace: rc.trace,
		E2E: map[string]summary{}, Layer: map[string]float64{},
	}
}

// problem records a failed check that is not tied to one operation.
func (r *runResult) problem(msg string) {
	if len(r.Problems) < 16 {
		r.Problems = append(r.Problems, msg)
	}
	r.Failed++
}

func (r *runResult) absorb(l *opLog) {
	r.Attempted += len(l.ops) + l.failed
	r.Failed += l.failed
	r.Problems = append(r.Problems, l.problems...)
}

func (r *runResult) absorbServe(l *serveLog) {
	r.Attempted += len(l.outcomes)
	r.Failed += l.failed
	r.Problems = append(r.Problems, l.problems...)
}

// finish fills in the keys the contract requires and decides correctness:
// a run is correct when it attempted work, nothing failed and every metric
// of its mode is a finite number.
func (r *runResult) finish() {
	r.Correct = r.Attempted > 0 && r.Failed == 0
	if r.Trace {
		for _, m := range perLayer {
			v, ok := r.Layer[m.Name] // absent: the workload does not run this layer
			if math.IsNaN(v) || math.IsInf(v, 0) {
				r.Correct = false
				r.Problems = append(r.Problems, fmt.Sprintf("metric %s is %v", m.Name, v))
				ok = false
			}
			if !ok {
				r.Layer[m.Name] = 0
			}
		}
		return
	}
	for _, m := range endToEnd {
		if s, ok := r.E2E[m.Name]; !ok || s.N == 0 || !(s.Value > 0) || math.IsInf(s.Value, 0) {
			r.Correct = false
			r.Problems = append(r.Problems, fmt.Sprintf("metric %s = %v, want a positive number", m.Name, s.Value))
			r.E2E[m.Name] = summary{N: s.N} // NaN and Inf have no JSON form
		}
	}
}

// contractLine is the one JSON object the driver reads from the last line.
func (r *runResult) contractLine() string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]mv{}
	if r.Trace {
		for _, m := range perLayer {
			metrics[m.Name] = mv{r.Layer[m.Name], m.Unit}
		}
	} else {
		for _, m := range endToEnd {
			metrics[m.Name] = mv{r.E2E[m.Name].Value, m.Unit}
		}
	}
	b, _ := json.Marshal(map[string]any{
		"correct": r.Correct, "attempted": r.Attempted, "failed": r.Failed, "metrics": metrics,
	})
	return string(b)
}

// print writes every metric by name with its unit.
func (r *runResult) print() {
	mode := "untraced"
	if r.Trace {
		mode = "traced"
	}
	fmt.Printf("== %s (%s, seed %d, %.0f s): %d operations, %d failed, correct=%v\n",
		r.Workload, mode, r.Seed, r.Seconds, r.Attempted, r.Failed, r.Correct)
	for _, p := range r.Problems {
		fmt.Printf("   problem: %s\n", p)
	}
	if r.Trace {
		for _, m := range perLayer {
			fmt.Printf("   %-32s %14.6g %s\n", m.Name, r.Layer[m.Name], m.Unit)
		}
		spans := make([]string, 0, len(r.SelfTimeS))
		for name := range r.SelfTimeS {
			spans = append(spans, name)
		}
		sort.Strings(spans)
		for _, name := range spans {
			fmt.Printf("   self time of %-19s %14.6g s\n", name, r.SelfTimeS[name])
		}
		return
	}
	for _, m := range endToEnd {
		s := r.E2E[m.Name]
		fmt.Printf("   %-12s %14.6g %-6s samples: min %-11.6g q1 %-11.6g median %-11.6g q3 %-11.6g max %-11.6g n %-4d bound %2.0f%%\n",
			m.Name, s.Value, m.Unit, s.Min, s.Q1, s.Median, s.Q3, s.Max, s.N, 100*m.Bound)
	}
}

// Exit-path clean-up: spawned workers must be stopped and their store
// directories removed however the process ends.
var (
	exitMu    sync.Mutex
	exitFuncs []func()
)

func atExit(fn func()) {
	exitMu.Lock()
	exitFuncs = append(exitFuncs, fn)
	exitMu.Unlock()
}

func runExitFuncs() {
	exitMu.Lock()
	fns := exitFuncs
	exitFuncs = nil
	exitMu.Unlock()
	for _, fn := range fns {
		fn()
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	runExitFuncs()
	os.Exit(1)
}

func runWorkload(w workload, rc runConfig) (*runResult, error) {
	var res *runResult
	var err error
	if w.inproc != nil {
		res, err = runInproc(w, rc)
	} else {
		res, err = runServe(w, rc)
	}
	if err != nil {
		return nil, err
	}
	res.finish()
	if res.rec != nil {
		res.SelfTimeS = map[string]float64{}
		for name, d := range res.rec.selfTimes() {
			res.SelfTimeS[name] = d.Seconds()
		}
	}
	return res, nil
}

func main() {
	var (
		name     = flag.String("workload", "", "run one workload (default: all six)")
		seed     = flag.Int64("seed", 1, "derives every design seed, job seed and arrival schedule")
		seconds  = flag.Float64("seconds", defaultSeconds, "how long one run measures")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
		out      = flag.String("out", "", "write the run record (the file -compare reads) here")
		compare  = flag.Bool("compare", false, "compare two -out records: benchmark -compare A.json B.json")
		ports    = flag.String("ports", "18081,18082", "listen ports of the two serve-open workers")
		buildDir = flag.String("build-dir", ".bench_build", "directory for the xserve binary, store directories and traces")
		printMan = flag.Bool("manifest", false, "print BENCHMARK.json as generated from the harness's tables and exit")
	)
	flag.Parse()
	if *printMan {
		os.Stdout.Write(manifest())
		return
	}
	if *compare {
		if flag.NArg() != 2 {
			fatal("-compare needs two record files")
		}
		os.Exit(compareRecords(os.Stdout, flag.Arg(0), flag.Arg(1)))
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) || flag.NArg() != 0 {
		fatal("bad arguments; see -h")
	}
	// The backend is pinned per run; a stray environment default must not leak in.
	os.Unsetenv("XPLACE_BACKEND")
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigc
		runExitFuncs()
		os.Exit(130)
	}()

	rc := runConfig{
		seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)), trace: *trace == 1,
		ports: *ports, buildDir: *buildDir,
	}
	run := workloads
	if *name != "" {
		w, ok := findWorkload(*name)
		if !ok {
			fatal("unknown workload %q", *name)
		}
		run = []workload{w}
	}
	record := runRecord{Env: readEnvironment()}
	ok := true
	for _, w := range run {
		res, err := runWorkload(w, rc)
		if err != nil {
			fatal("%s: %v", w.name, err)
		}
		res.print()
		if res.rec != nil {
			path := filepath.Join(*buildDir, "trace-"+w.name+".json")
			if err := writeTrace(res.rec, path); err != nil {
				fatal("%s: writing trace: %v", w.name, err)
			}
			fmt.Printf("   spans written to %s\n", path)
		}
		record.Runs = append(record.Runs, res)
		ok = ok && res.Correct
	}
	if *out != "" {
		if err := record.write(*out); err != nil {
			fatal("%v", err)
		}
	}
	runExitFuncs()
	if len(run) == 1 {
		// The driver's contract: the last line of standard output.
		fmt.Println(record.Runs[0].contractLine())
	}
	if !ok {
		os.Exit(1)
	}
}

func writeTrace(rec *recorder, path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rec.writeChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
