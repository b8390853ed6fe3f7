package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"xplace/internal/gateway"
	"xplace/internal/jobapi"
)

// serve-open sizing. The job is gp-small's design capped at 100 iterations
// (~0.13 s on a single-worker engine), so two single-engine nodes run at
// about a third of their capacity at 5 arrivals/s.
const (
	serveRate      = 5.0 // arrivals per second, open loop
	serveBench     = "adaptec1"
	serveScale     = 0.004
	serveMaxIter   = 100
	resubmitGap    = 10 // a resubmitted seed finished at least this many arrivals (2 s) earlier
	serveWarmJobs  = 2  // discarded jobs per worker before the first arrival
	probePeriod    = 250 * time.Millisecond
	workerReadyMax = 20 * time.Second

	// Timed fleet starts (setup_s) before and after the measured schedule.
	fleetStartsBefore = 3
	fleetStartsAfter  = 2
)

// arrival is one entry of the open-loop schedule.
type arrival struct {
	Idx        int
	Due        time.Duration // offset from the schedule's start
	JobSeed    int64
	ResubmitOf int // index of the fresh arrival whose seed is sent again, -1 for a fresh job
}

// buildSchedule is a pure function of (seed, stream): n arrivals at a fixed
// rate; arrival i with i mod 3 = 2 resubmits the seed of a fresh arrival at
// least resubmitGap places earlier (a cache read), the others are fresh
// jobs (WAL + checkpoint + cache write).
func buildSchedule(seed int64, stream string, n int, rate float64) []arrival {
	rng := rand.New(rand.NewSource(deriveSeed(seed, stream+"/pick", 0)))
	out := make([]arrival, n)
	var fresh []int
	for i := range out {
		a := arrival{Idx: i, Due: time.Duration(float64(i) / rate * float64(time.Second)), ResubmitOf: -1}
		eligible := 0
		for eligible < len(fresh) && fresh[eligible] <= i-resubmitGap {
			eligible++
		}
		if i%3 == 2 && eligible > 0 {
			a.ResubmitOf = fresh[rng.Intn(eligible)]
			a.JobSeed = out[a.ResubmitOf].JobSeed
		} else {
			a.JobSeed = deriveSeed(seed, stream+"/job", i)
			fresh = append(fresh, i)
		}
		out[i] = a
	}
	return out
}

func jobBody(seed int64) []byte {
	b, _ := json.Marshal(jobapi.Request{Bench: serveBench, Scale: serveScale, Seed: seed, MaxIter: serveMaxIter})
	return b
}

// jobStatus is the part of a job's JSON (gateway or worker) the harness reads.
type jobStatus struct {
	ID         int64      `json:"id"`
	State      string     `json:"state"`
	Err        string     `json:"error"`
	Node       string     `json:"node"`
	RemoteID   int64      `json:"remote_id"`
	Cached     bool       `json:"cached"`
	Submitted  time.Time  `json:"submitted"`
	Started    *time.Time `json:"started"`
	Finished   *time.Time `json:"finished"`
	Iterations int        `json:"iterations"`
	HPWL       float64    `json:"hpwl"`
}

// outcome is what the client observed for one arrival.
type outcome struct {
	arr       arrival
	late      time.Duration // how late the generator sent the request
	submitRTT time.Duration // POST → 202
	ttfs      time.Duration // due → first SSE event
	total     time.Duration // due → done event
	status    jobStatus
	err       error
}

// runJob submits one job to base and follows its event stream to the done
// event. Latencies are taken from due, the instant the request should have
// been sent.
func runJob(client *http.Client, base string, body []byte, due time.Time, rec *recorder, opID string) outcome {
	var o outcome
	root := rec.begin("job", opID, -1)
	defer rec.end(root)
	sent := time.Now()
	o.late = sent.Sub(due)

	sp := rec.begin("gateway.submit", opID, root)
	resp, err := client.Post(base+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		o.err = err
		return o
	}
	rb, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	rec.end(sp)
	o.submitRTT = time.Since(sent)
	if resp.StatusCode != http.StatusAccepted {
		o.err = fmt.Errorf("submit: HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(rb))
		return o
	}
	var accepted jobStatus
	if err := json.Unmarshal(rb, &accepted); err != nil {
		o.err = fmt.Errorf("submit: %w", err)
		return o
	}

	sp = rec.begin("gateway.stream_open", opID, root)
	resp, err = client.Get(fmt.Sprintf("%s/jobs/%d/events", base, accepted.ID))
	rec.end(sp)
	if err != nil {
		o.err = err
		return o
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		o.err = fmt.Errorf("events: HTTP %d", resp.StatusCode)
		return o
	}
	wait := rec.begin("gateway.first_event", opID, root)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	var event, data string
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data = strings.TrimPrefix(line, "data: ")
		case line == "":
			if event == "" {
				continue
			}
			if o.ttfs == 0 {
				o.ttfs = time.Since(due)
				rec.end(wait)
				wait = rec.begin("gateway.to_done", opID, root)
			}
			if event == "done" {
				o.total = time.Since(due)
				rec.end(wait)
				if err := json.Unmarshal([]byte(data), &o.status); err != nil {
					o.err = fmt.Errorf("done event: %w", err)
				}
				return o
			}
			event, data = "", ""
		}
	}
	o.err = fmt.Errorf("event stream ended without done (last event %q): %v", event, sc.Err())
	return o
}

// fleet is the system under test: two spawned xserve processes behind an
// in-process xgate gateway on an httptest server.
type fleet struct {
	dir    string
	procs  []*exec.Cmd
	nodes  []string
	gw     *gateway.Gateway
	srv    *httptest.Server
	client *http.Client
	once   sync.Once
}

// buildXserve compiles cmd/xserve from the checkout into buildDir.
func buildXserve(buildDir string) (string, error) {
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return "", err
	}
	bin, err := filepath.Abs(filepath.Join(buildDir, "xserve"))
	if err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/xserve")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/xserve: %v\n%s", err, out)
	}
	return bin, nil
}

// startFleet starts one worker per address (node names are the URLs, so
// the addresses are pinned: random ports would build a different hash ring,
// and a different job-to-node assignment, on every run), waits for each
// /readyz, starts the gateway and waits two probe periods so its view of
// the fleet has settled before the first arrival.
func startFleet(bin, buildDir string, addrs []string) (f *fleet, err error) {
	for _, a := range addrs {
		ln, lerr := net.Listen("tcp", a)
		if lerr != nil {
			return nil, fmt.Errorf("worker address %s is taken (choose others with -ports): %w", a, lerr)
		}
		ln.Close()
	}
	dir, err := os.MkdirTemp(buildDir, "serve-")
	if err != nil {
		return nil, err
	}
	f = &fleet{dir: dir, client: &http.Client{}}
	atExit(f.stop)
	defer func() {
		if err != nil {
			f.stop()
		}
	}()
	for i, a := range addrs {
		logf, lerr := os.Create(filepath.Join(dir, fmt.Sprintf("worker%d.log", i)))
		if lerr != nil {
			return nil, lerr
		}
		cmd := exec.Command(bin, "-addr", a, "-engines", "1", "-workers", "1", "-queue", "8",
			"-store", filepath.Join(dir, fmt.Sprintf("store%d", i)))
		cmd.Stdout, cmd.Stderr = logf, logf
		cmd.SysProcAttr = childProcAttr()
		serr := cmd.Start()
		logf.Close()
		if serr != nil {
			return nil, serr
		}
		f.procs = append(f.procs, cmd)
		f.nodes = append(f.nodes, "http://"+a)
	}
	deadline := time.Now().Add(workerReadyMax)
	for _, n := range f.nodes {
		for {
			resp, gerr := f.client.Get(n + "/readyz")
			if gerr == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					break
				}
			}
			if time.Now().After(deadline) {
				return nil, fmt.Errorf("worker %s not ready after %v (log in %s)", n, workerReadyMax, dir)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	f.gw, err = gateway.New(gateway.Options{Nodes: f.nodes, ProbePeriod: probePeriod})
	if err != nil {
		return nil, err
	}
	f.srv = httptest.NewServer(gateway.NewMux(f.gw))
	time.Sleep(2 * probePeriod)
	// Discarded warm-up jobs, straight to each worker: first-job costs
	// (engine pool spin-up, arena misses) stay out of the measurement.
	for w, n := range f.nodes {
		for k := 0; k < serveWarmJobs; k++ {
			body := jobBody(int64(1_000_000 + w*serveWarmJobs + k))
			if o := runJob(f.client, n, body, time.Now(), nil, ""); o.err != nil || o.status.State != "succeeded" {
				return nil, fmt.Errorf("warm-up job on %s: state %q: %v", n, o.status.State, o.err)
			}
		}
	}
	return f, nil
}

// stop closes the gateway, terminates and waits for the workers and
// removes the store directories. It is safe to call more than once, and on
// the nil fleet a failed start leaves behind.
func (f *fleet) stop() {
	if f == nil {
		return
	}
	f.once.Do(func() {
		if f.srv != nil {
			f.srv.CloseClientConnections()
			f.srv.Close()
		}
		if f.gw != nil {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			_ = f.gw.Close(ctx)
			cancel()
		}
		for _, p := range f.procs {
			_ = p.Process.Signal(syscall.SIGTERM)
		}
		for _, p := range f.procs {
			done := make(chan struct{})
			go func() { _ = p.Wait(); close(done) }()
			select {
			case <-done:
			case <-time.After(5 * time.Second):
				_ = p.Process.Kill()
				<-done
			}
		}
		_ = os.RemoveAll(f.dir)
	})
}

// scrape reads one un-labelled or labelled series from a Prometheus text
// page; labelled series with the same name are summed into total and
// returned one by one in each.
func scrape(client *http.Client, url, name string) (total float64, each []float64, err error) {
	resp, err := client.Get(url)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, err
	}
	re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(name) + `(\{[^}]*\})? ([0-9.eE+-]+)$`)
	for _, m := range re.FindAllSubmatch(b, -1) {
		v, perr := strconv.ParseFloat(string(m[2]), 64)
		if perr != nil {
			return 0, nil, perr
		}
		total += v
		each = append(each, v)
	}
	return total, each, nil
}

// workerLaunches sums xserve_kernel_launches_total over the fleet.
func (f *fleet) workerLaunches() (float64, error) {
	var sum float64
	for _, n := range f.nodes {
		v, _, err := scrape(f.client, n+"/metrics", "xserve_kernel_launches_total")
		if err != nil {
			return 0, err
		}
		sum += v
	}
	return sum, nil
}

// serveLog is one open-loop phase: the client's observations plus the
// worker-side times fetched after the last job finished.
type serveLog struct {
	outcomes   []outcome
	queueWait  []float64 // worker started − submitted, fresh jobs, ms
	runTime    []float64 // worker finished − started, fresh jobs, ms
	launches   float64   // kernel launches per fresh job
	failed     int
	problems   []string
	freshCount int
}

func (l *serveLog) fail(msg string) {
	l.failed++
	if len(l.problems) < 8 {
		l.problems = append(l.problems, msg)
	}
}

// runSchedule sends the schedule open loop: each arrival has its own
// goroutine that sleeps until its due time, so a slow job never delays the
// arrivals behind it. With 0.2 s jobs at 5/s one or two are in flight.
func (f *fleet) runSchedule(sched []arrival, rec *recorder, tag string) (*serveLog, error) {
	log := &serveLog{outcomes: make([]outcome, len(sched))}
	before, err := f.workerLaunches()
	if err != nil {
		return nil, err
	}
	start := time.Now().Add(20 * time.Millisecond)
	var wg sync.WaitGroup
	for i := range sched {
		wg.Add(1)
		go func(a arrival) {
			defer wg.Done()
			due := start.Add(a.Due)
			time.Sleep(time.Until(due))
			o := runJob(f.client, f.srv.URL, jobBody(a.JobSeed), due, rec, fmt.Sprintf("%s#%d", tag, a.Idx))
			o.arr = a
			log.outcomes[a.Idx] = o
		}(sched[i])
	}
	wg.Wait()
	after, err := f.workerLaunches()
	if err != nil {
		return nil, err
	}

	// Checks: every job succeeded, cached exactly on resubmissions, and a
	// resubmission returns its original's HPWL bit for bit.
	for _, o := range log.outcomes {
		a := o.arr
		switch {
		case o.err != nil:
			log.fail(fmt.Sprintf("arrival %d: %v", a.Idx, o.err))
		case o.status.State != "succeeded":
			log.fail(fmt.Sprintf("arrival %d: state %q: %s", a.Idx, o.status.State, o.status.Err))
		case o.status.Cached != (a.ResubmitOf >= 0):
			log.fail(fmt.Sprintf("arrival %d: cached=%v, resubmission=%v", a.Idx, o.status.Cached, a.ResubmitOf >= 0))
		case a.ResubmitOf >= 0 && o.status.HPWL != log.outcomes[a.ResubmitOf].status.HPWL:
			log.fail(fmt.Sprintf("arrival %d: HPWL %v differs from original's %v", a.Idx, o.status.HPWL, log.outcomes[a.ResubmitOf].status.HPWL))
		case a.ResubmitOf < 0:
			log.freshCount++
			var ws jobStatus
			if err := getJSON(f.client, fmt.Sprintf("%s/jobs/%d", o.status.Node, o.status.RemoteID), &ws); err != nil {
				log.fail(fmt.Sprintf("arrival %d: worker status: %v", a.Idx, err))
				continue
			}
			if ws.Started != nil && ws.Finished != nil {
				log.queueWait = append(log.queueWait, ms(ws.Started.Sub(ws.Submitted)))
				log.runTime = append(log.runTime, ms(ws.Finished.Sub(*ws.Started)))
			}
		}
	}
	if log.freshCount > 0 {
		log.launches = (after - before) / float64(log.freshCount)
	}
	return log, nil
}

func getJSON(client *http.Client, url string, v any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// pick returns f over the successful outcomes that are fresh (or, with
// fresh=false, resubmissions).
func (l *serveLog) pick(fresh bool, f func(outcome) float64) []float64 {
	var out []float64
	for _, o := range l.outcomes {
		if o.err == nil && o.status.State == "succeeded" && (o.arr.ResubmitOf < 0) == fresh {
			out = append(out, f(o))
		}
	}
	return out
}

func parsePorts(s string) ([]string, error) {
	var addrs []string
	for _, p := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || n <= 0 || n > 65535 {
			return nil, fmt.Errorf("bad port %q in -ports", p)
		}
		addrs = append(addrs, fmt.Sprintf("127.0.0.1:%d", n))
	}
	if len(addrs) != 2 {
		return nil, fmt.Errorf("-ports needs exactly two ports, got %d", len(addrs))
	}
	return addrs, nil
}

// runServe is the entry point of serve-open.
func runServe(w workload, rc runConfig) (*runResult, error) {
	addrs, err := parsePorts(rc.ports)
	if err != nil {
		return nil, err
	}
	// Compiling the worker is not the program's set-up: it is excluded
	// from setup_s, which times start, readiness and warm-up of the fleet.
	bin, err := buildXserve(rc.buildDir)
	if err != nil {
		return nil, err
	}
	// Set-up repetitions before and after the measured schedule, so that a
	// stretch of interference cannot cover all of them.
	var f *fleet
	var setups []float64
	start := func() (err error) {
		if f != nil {
			f.stop()
		}
		t0 := time.Now()
		if f, err = startFleet(bin, rc.buildDir, addrs); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		return nil
	}
	before := fleetStartsBefore
	if rc.trace {
		before = 1 // the traced run reports no set-up time
	}
	for i := 0; i < before; i++ {
		if err := start(); err != nil {
			return nil, err
		}
	}
	defer func() { f.stop() }()
	res := newRunResult(w.name, rc)
	arrivals := func(d time.Duration) int {
		n := int(d.Seconds() * serveRate)
		if n < resubmitGap+6 {
			n = resubmitGap + 6 // enough for at least one resubmission
		}
		return n
	}

	if !rc.trace {
		log, err := f.runSchedule(buildSchedule(rc.seed, "serve", arrivals(rc.seconds), serveRate), nil, "")
		if err != nil {
			return nil, err
		}
		res.absorbServe(log)
		for i := 0; i < fleetStartsAfter; i++ {
			if err := start(); err != nil {
				return nil, err
			}
		}
		res.E2E["setup_s"] = summarizeFastest(setups)
		res.E2E["op_best_ms"] = summarizeFastest(log.pick(true, func(o outcome) float64 { return ms(o.total) }))
		res.E2E["gp_best_ms"] = summarizeFastest(log.runTime)
		res.E2E["gp_iters"] = summarize(log.pick(true, func(o outcome) float64 { return float64(o.status.Iterations) }))
		res.E2E["gp_launches"] = summarize([]float64{log.launches})
		res.E2E["hpwl"] = summarize(log.pick(true, func(o outcome) float64 { return o.status.HPWL }))
		return res, nil
	}

	rec := newRecorder()
	plain, err := f.runSchedule(buildSchedule(rc.seed, "serve/plain", arrivals(rc.seconds/4), serveRate), nil, "")
	if err != nil {
		return nil, err
	}
	traced, err := f.runSchedule(buildSchedule(rc.seed, "serve/traced", arrivals(rc.seconds*35/100), serveRate), rec, w.name)
	if err != nil {
		return nil, err
	}
	res.absorbServe(plain)
	res.absorbServe(traced)
	f.layerMetrics(res, plain, traced)
	if err := f.probes(res, rc); err != nil {
		return nil, err
	}
	res.Layer["proc.peak_rss_mb"] = peakRSSMB()
	res.rec = rec
	return res, nil
}

// layerMetrics reports the serving layers from the traced phase.
func (f *fleet) layerMetrics(res *runResult, plain, traced *serveLog) {
	L := res.Layer
	fresh := traced.pick(true, func(o outcome) float64 { return ms(o.total) })
	ttfs := traced.pick(true, func(o outcome) float64 { return ms(o.ttfs) })
	L["placer.first_progress_ms"] = median(ttfs)
	L["serve.queue_wait_p50_ms"] = median(traced.queueWait)
	L["serve.run_p50_ms"] = median(traced.runTime)
	L["serve.cache_hit_p50_ms"] = median(traced.pick(false, func(o outcome) float64 { return ms(o.total) }))
	var rtt, late []float64
	for _, o := range traced.outcomes {
		if o.err == nil {
			rtt = append(rtt, ms(o.submitRTT))
			late = append(late, ms(o.late))
		}
	}
	L["gateway.submit_rtt_p50_ms"] = median(rtt)
	pct, tail := tailPercentile(fresh, 10)
	L["gateway.job_tail_ms"] = tail
	_, L["gateway.ttfs_tail_ms"] = tailPercentile(ttfs, 10)
	L["gateway.tail_pct"] = float64(pct)
	L["gen.late_p99_ms"] = percentile(late, 99)
	if total, each, err := scrape(f.client, f.srv.URL+"/metrics", "xgate_node_routed_total"); err == nil && total > 0 {
		L["gateway.node_share_max"] = slices.Max(each) / total
	}
	if v, _, err := scrape(f.client, f.srv.URL+"/metrics", "xgate_retry_total"); err == nil {
		L["gateway.retries"] = v
	}
	// A spill is a resubmission that ran on another node than its original.
	var spills float64
	for _, log := range []*serveLog{plain, traced} {
		for _, o := range log.outcomes {
			if o.err == nil && o.arr.ResubmitOf >= 0 && o.status.Node != log.outcomes[o.arr.ResubmitOf].status.Node {
				spills++
			}
		}
	}
	L["gateway.spills"] = spills
	u := median(plain.pick(true, func(o outcome) float64 { return ms(o.total) }))
	if u > 0 {
		L["bench.trace_overhead_share"] = (median(fresh) - u) / u
	}
	L["bench.op_p50_ms"] = u
}
