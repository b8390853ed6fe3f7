package gateway

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"xplace/internal/jobapi"
	"xplace/internal/placer"
	"xplace/internal/serve"
)

// fakeWorker is an in-process stand-in for one xserve daemon: the routes
// the gateway calls (submit/status/events/cancel/probes) answered with
// jobapi's own Status and event writers, a per-key result cache, and
// scripted failure modes (transient 500s, backpressure, sudden death via
// the test server). Jobs "place" by counting
// iterations on a timer; the final HPWL is a pure function of the
// request body, so a failover rerun on a different fake reproduces it
// exactly — the same determinism contract the real engine provides.
type fakeWorker struct {
	srv        *httptest.Server
	iterPeriod time.Duration
	runIters   int

	mu       sync.Mutex
	jobs     map[int64]*fakeJob
	nextID   int64
	full     bool // 429 every submit
	failNext int  // 500 the next N submits
	submits  int  // POST /jobs calls received, whatever their outcome
	launches int  // jobs actually run (cache hits excluded)
	cache    map[string]fakeResult
}

type fakeResult struct {
	iters int
	hpwl  float64
}

type fakeJob struct {
	id     int64
	key    string
	mu     sync.Mutex
	iter   int
	state  serve.State
	hpwl   float64
	cached bool
}

// fakeHPWL is the deterministic "placement result" for a request body.
func fakeHPWL(key string) float64 { return float64(1000 + len(key)) }

func newFakeWorker(t *testing.T, iterPeriod time.Duration, runIters int) *fakeWorker {
	t.Helper()
	w := &fakeWorker{
		iterPeriod: iterPeriod,
		runIters:   runIters,
		jobs:       make(map[int64]*fakeJob),
		cache:      make(map[string]fakeResult),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", w.handleSubmit)
	mux.HandleFunc("GET /jobs/{id}", w.handleStatus)
	mux.HandleFunc("GET /jobs/{id}/events", w.handleEvents)
	mux.HandleFunc("POST /jobs/{id}/cancel", func(http.ResponseWriter, *http.Request) {})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `{"status":"ok"}`)
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `{"status":"ready"}`)
	})
	w.srv = httptest.NewServer(mux)
	t.Cleanup(w.srv.Close)
	return w
}

func (w *fakeWorker) name() string { return w.srv.URL }

func (w *fakeWorker) setFull(v bool) {
	w.mu.Lock()
	w.full = v
	w.mu.Unlock()
}

func (w *fakeWorker) setFailNext(n int) {
	w.mu.Lock()
	w.failNext = n
	w.mu.Unlock()
}

func (w *fakeWorker) submitCount() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.submits
}

func (w *fakeWorker) launchCount() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.launches
}

// die simulates SIGKILL: every live connection (including SSE relays)
// drops and the listener stops answering.
func (w *fakeWorker) die() {
	w.srv.CloseClientConnections()
	w.srv.Close()
}

func (w *fakeWorker) handleSubmit(rw http.ResponseWriter, r *http.Request) {
	var req jobapi.Request
	body := json.NewDecoder(r.Body)
	if err := body.Decode(&req); err != nil {
		http.Error(rw, `{"error":"bad body"}`, http.StatusBadRequest)
		return
	}
	key := req.CacheKey()
	w.mu.Lock()
	w.submits++
	if w.failNext > 0 {
		w.failNext--
		w.mu.Unlock()
		http.Error(rw, `{"error":"transient"}`, http.StatusInternalServerError)
		return
	}
	if w.full {
		w.mu.Unlock()
		http.Error(rw, `{"error":"queue full"}`, http.StatusTooManyRequests)
		return
	}
	w.nextID++
	j := &fakeJob{id: w.nextID, key: key}
	w.jobs[j.id] = j
	if res, ok := w.cache[key]; ok {
		j.state = serve.Succeeded
		j.iter = res.iters
		j.hpwl = res.hpwl
		j.cached = true
	} else {
		w.launches++
		go w.run(j)
	}
	w.mu.Unlock()
	jobapi.WriteJSON(rw, http.StatusAccepted, j.status())
}

func (w *fakeWorker) run(j *fakeJob) {
	for i := 1; i <= w.runIters; i++ {
		time.Sleep(w.iterPeriod)
		j.mu.Lock()
		j.iter = i
		j.state = serve.Running
		j.mu.Unlock()
	}
	j.mu.Lock()
	j.state = serve.Succeeded
	j.hpwl = fakeHPWL(j.key)
	j.mu.Unlock()
	w.mu.Lock()
	w.cache[j.key] = fakeResult{iters: w.runIters, hpwl: fakeHPWL(j.key)}
	w.mu.Unlock()
}

func (w *fakeWorker) job(r *http.Request) *fakeJob {
	var id int64
	fmt.Sscanf(r.PathValue("id"), "%d", &id)
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.jobs[id]
}

func (j *fakeJob) status() jobapi.Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	return jobapi.Status{
		ID: j.id, State: j.state, Iterations: j.iter, HPWL: j.hpwl, Cached: j.cached,
		Progress: &placer.Snapshot{Iter: j.iter, HPWL: j.hpwl},
	}
}

func (w *fakeWorker) handleStatus(rw http.ResponseWriter, r *http.Request) {
	j := w.job(r)
	if j == nil {
		http.Error(rw, `{"error":"no such job"}`, http.StatusNotFound)
		return
	}
	jobapi.WriteJSON(rw, http.StatusOK, j.status())
}

func (w *fakeWorker) handleEvents(rw http.ResponseWriter, r *http.Request) {
	j := w.job(r)
	if j == nil {
		http.Error(rw, `{"error":"no such job"}`, http.StatusNotFound)
		return
	}
	fl := rw.(http.Flusher)
	rw.Header().Set("Content-Type", "text/event-stream")
	rw.WriteHeader(http.StatusOK)
	last := 0
	fmt.Sscanf(r.Header.Get("Last-Event-ID"), "%d", &last)
	for {
		select {
		case <-r.Context().Done():
			return
		case <-time.After(2 * time.Millisecond):
		}
		st := j.status()
		for last < st.Iterations {
			last++
			_ = jobapi.WriteProgress(rw, placer.Snapshot{Iter: last, HPWL: float64(2000 - last)})
			fl.Flush()
		}
		if st.State.Terminal() {
			_ = jobapi.WriteDone(rw, st)
			fl.Flush()
			return
		}
	}
}

// fastOpts are gateway options tuned for test latencies.
func fastOpts(nodes ...string) Options {
	return Options{
		Nodes:         nodes,
		ProbePeriod:   25 * time.Millisecond,
		ProbeTimeout:  250 * time.Millisecond,
		RetryBase:     time.Millisecond,
		RetryMaxDelay: 10 * time.Millisecond,
		RetryAfter:    20 * time.Millisecond,
		RouteWait:     10 * time.Second,
	}
}

func testRequest(seed int64) jobapi.Request {
	return jobapi.Request{Bench: "fft_1", Scale: 0.002, Seed: seed, MaxIter: 5}
}

func waitDone(t *testing.T, j *Job, within time.Duration) jobapi.Status {
	t.Helper()
	select {
	case <-j.done:
	case <-time.After(within):
		t.Fatalf("job %d not done within %v: %+v", j.id, within, j.Status())
	}
	return j.Status()
}

func closeGateway(t *testing.T, g *Gateway) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := g.Close(ctx); err != nil {
		t.Errorf("gateway close: %v", err)
	}
}

// TestCacheAwareRouting: identical resubmissions land on the node that
// already holds the cached result — zero new engine launches — and the
// property survives a gateway restarted with one more worker.
func TestCacheAwareRouting(t *testing.T) {
	wA := newFakeWorker(t, time.Millisecond, 5)
	wB := newFakeWorker(t, time.Millisecond, 5)
	byName := map[string]*fakeWorker{wA.name(): wA, wB.name(): wB}
	g, err := New(fastOpts(wA.name(), wB.name()))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { closeGateway(t, g) }()

	launches := func() int { return wA.launchCount() + wB.launchCount() }

	j1, err := g.Submit(testRequest(1))
	if err != nil {
		t.Fatal(err)
	}
	st1 := waitDone(t, j1, 15*time.Second)
	if st1.State != serve.Succeeded || st1.Cached {
		t.Fatalf("first run: %+v", st1)
	}
	owner := st1.Node
	if byName[owner] == nil {
		t.Fatalf("job ran on unknown node %q", owner)
	}
	if launches() != 1 {
		t.Fatalf("first run launched %d times, want 1", launches())
	}

	// Identical resubmission: routed to the same owner, served from its
	// cache, no engine anywhere.
	j2, err := g.Submit(testRequest(1))
	if err != nil {
		t.Fatal(err)
	}
	st2 := waitDone(t, j2, 15*time.Second)
	if st2.Node != owner {
		t.Errorf("resubmission routed to %s, want cache owner %s", st2.Node, owner)
	}
	if !st2.Cached {
		t.Errorf("resubmission not served from cache: %+v", st2)
	}
	if launches() != 1 {
		t.Errorf("resubmission launched an engine: %d launches", launches())
	}
	if g.routeTotal.Value() != 2 {
		t.Errorf("route_total = %d, want 2", g.routeTotal.Value())
	}

	// The gateway restarts with one more worker. The key either stays put
	// (still cached) or moves to the joiner (one deterministic recompute);
	// after that one submission the fleet is warm again and ownership is
	// stable.
	closeGateway(t, g)
	wC := newFakeWorker(t, time.Millisecond, 5)
	g, err = New(fastOpts(wA.name(), wB.name(), wC.name()))
	if err != nil {
		t.Fatal(err)
	}
	j3, err := g.Submit(testRequest(1))
	if err != nil {
		t.Fatal(err)
	}
	st3 := waitDone(t, j3, 15*time.Second)
	if st3.State != serve.Succeeded {
		t.Fatalf("post-join run: %+v", st3)
	}
	if st3.Node != owner && st3.Node != wC.name() {
		t.Errorf("post-join run on %s: a key moves only onto the joiner %s", st3.Node, wC.name())
	}
	mid := launches() + wC.launchCount()
	j4, err := g.Submit(testRequest(1))
	if err != nil {
		t.Fatal(err)
	}
	st4 := waitDone(t, j4, 15*time.Second)
	if !st4.Cached || st4.Node != st3.Node {
		t.Errorf("post-join resubmission not cache-stable: %+v vs node %s", st4, st3.Node)
	}
	if got := launches() + wC.launchCount(); got != mid {
		t.Errorf("post-join resubmission launched an engine: %d -> %d", mid, got)
	}
}

// TestTransientRetryWithBackoff: submit attempts that fail with 5xx are
// retried on the same node with backoff before anything spills; the
// job lands despite the flaps and the retries are accounted.
func TestTransientRetryWithBackoff(t *testing.T) {
	w := newFakeWorker(t, time.Millisecond, 3)
	w.setFailNext(2)
	g, err := New(fastOpts(w.name()))
	if err != nil {
		t.Fatal(err)
	}
	defer closeGateway(t, g)

	j, err := g.Submit(testRequest(2))
	if err != nil {
		t.Fatalf("submit through transient faults: %v", err)
	}
	st := waitDone(t, j, 15*time.Second)
	if st.State != serve.Succeeded {
		t.Fatalf("job: %+v", st)
	}
	if got := g.retryTotal.Value(); got != 2 {
		t.Errorf("retry_total = %d, want 2", got)
	}
	if got := g.breakerTrips.Value(); got != 0 {
		t.Errorf("breaker tripped on sub-threshold flaps: %d", got)
	}
}

// TestBreakerEjectsFlappingNode: a node whose submit path fails
// persistently trips its breaker and stops being offered jobs; after
// the cooldown (half-open) a healthy submit closes it again.
func TestBreakerEjectsFlappingNode(t *testing.T) {
	w := newFakeWorker(t, time.Millisecond, 3)
	opts := fastOpts(w.name())
	opts.BreakerCooldown = 100 * time.Millisecond
	g, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer closeGateway(t, g)

	w.setFailNext(100)
	if _, err := g.Submit(testRequest(3)); err == nil {
		t.Fatal("submit succeeded against a dead submit path")
	}
	if got := g.breakerTrips.Value(); got < 1 {
		t.Fatalf("breaker never tripped: %d", got)
	}
	n := g.nodes[w.name()]
	if n.available() {
		t.Fatal("node still routable with an open breaker")
	}

	// Heal the worker; after the cooldown the half-open breaker lets one
	// submit through and closes on its success.
	w.setFailNext(0)
	time.Sleep(150 * time.Millisecond)
	j, err := g.Submit(testRequest(3))
	if err != nil {
		t.Fatalf("submit after cooldown: %v", err)
	}
	st := waitDone(t, j, 15*time.Second)
	if st.State != serve.Succeeded {
		t.Fatalf("post-recovery job: %+v", st)
	}
	if n.breakerOpen() {
		t.Error("breaker still open after a successful submit")
	}
}

// TestBackpressureSpillsToNextNode: a 429 from the key's owner is not a
// fault — no retry, no breaker — the job just spills to the next ring
// node and runs there.
func TestBackpressureSpillsToNextNode(t *testing.T) {
	wA := newFakeWorker(t, time.Millisecond, 3)
	wB := newFakeWorker(t, time.Millisecond, 3)
	byName := map[string]*fakeWorker{wA.name(): wA, wB.name(): wB}
	g, err := New(fastOpts(wA.name(), wB.name()))
	if err != nil {
		t.Fatal(err)
	}
	defer closeGateway(t, g)

	// Discover the key's owner with an unconstrained run.
	j1, err := g.Submit(testRequest(4))
	if err != nil {
		t.Fatal(err)
	}
	owner := waitDone(t, j1, 15*time.Second).Node

	// Saturate the owner: a DIFFERENT seed (cache cannot answer) must
	// spill to the other node.
	byName[owner].setFull(true)
	j2, err := g.Submit(testRequest(5))
	if err != nil {
		t.Fatalf("submit with one node full: %v", err)
	}
	st := waitDone(t, j2, 15*time.Second)
	if st.State != serve.Succeeded {
		t.Fatalf("spilled job: %+v", st)
	}
	if st.Node == owner && byName[owner].launchCount() > 1 {
		t.Errorf("job ran on the saturated owner")
	}
	if got := g.breakerTrips.Value(); got != 0 {
		t.Errorf("backpressure tripped a breaker: %d", got)
	}
}

// TestFailoverOnDeadWorker: a worker dies mid-job (connections cut,
// listener gone). The gateway confirms the death, reruns the recorded
// canonical request on the surviving node under the SAME job ID, and
// the client-visible progress stream stays monotone and duplicate-free
// with the final result identical to an undisturbed run.
func TestFailoverOnDeadWorker(t *testing.T) {
	wA := newFakeWorker(t, 10*time.Millisecond, 200)
	wB := newFakeWorker(t, 10*time.Millisecond, 200)
	byName := map[string]*fakeWorker{wA.name(): wA, wB.name(): wB}
	g, err := New(fastOpts(wA.name(), wB.name()))
	if err != nil {
		t.Fatal(err)
	}
	defer closeGateway(t, g)

	req := testRequest(6)
	j, err := g.Submit(req)
	if err != nil {
		t.Fatal(err)
	}

	// Watch the client-visible stream for monotonicity across the kill.
	iters := make(chan int, 1024)
	sub, unsub := j.Subscribe(1024)
	defer unsub()
	go func() {
		for sn := range sub {
			iters <- sn.Iter
		}
		close(iters)
	}()

	deadline := time.Now().Add(30 * time.Second)
	for j.Status().Progress == nil || j.Status().Progress.Iter < 5 {
		if time.Now().After(deadline) {
			t.Fatalf("job never progressed: %+v", j.Status())
		}
		time.Sleep(2 * time.Millisecond)
	}
	dead := j.Status().Node
	byName[dead].die()

	st := waitDone(t, j, 60*time.Second)
	if st.State != serve.Succeeded {
		t.Fatalf("job after node death: %+v", st)
	}
	if st.Node == dead || st.Node == "" {
		t.Errorf("job finished on the dead node %q", st.Node)
	}
	if st.Failovers != 1 {
		t.Errorf("failovers = %d, want 1", st.Failovers)
	}
	if got := g.failoverTotal.Value(); got != 1 {
		t.Errorf("failover_total = %d, want 1", got)
	}
	// Bit-identical to an undisturbed run: the fake's result is a pure
	// function of the canonical request, exactly like the real engine.
	req.Normalize()
	if want := fakeHPWL(req.CacheKey()); st.HPWL != want {
		t.Errorf("failed-over HPWL %v, want %v", st.HPWL, want)
	}
	prev := 0
	for it := range iters {
		if it != prev+1 {
			t.Fatalf("client stream not contiguous across failover: %d after %d", it, prev)
		}
		prev = it
	}
	if prev != 200 {
		t.Errorf("client stream delivered %d iterations, want 200", prev)
	}
	// Exactly one route + one failover route.
	if got := g.routeTotal.Value(); got != 2 {
		t.Errorf("route_total = %d, want 2 (initial + failover)", got)
	}
}
