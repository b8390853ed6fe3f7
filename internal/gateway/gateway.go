// Package gateway is the fault-tolerance tier over a fleet of xserve
// workers: a jobapi.Service (served by cmd/xgate through jobapi.NewMux,
// the same mux the workers use) that shards jobs across many nodes.
//
// The design leans on one property the rest of the stack already
// guarantees: placement is deterministic. The same normalized request
// run anywhere in the fleet (same flags, same worker count) produces a
// bit-identical result, so the gateway's failure handling can be blunt —
// when a worker dies mid-job, rerun the job's canonical payload on the
// next ring node and the client cannot tell the difference.
//
// Mechanics:
//
//   - Routing is a consistent hash of the request's cache key (the same
//     content address the workers' result caches use), so identical
//     resubmissions land on the node already holding the cached result
//     and are answered without an engine launch.
//   - Per-node health is probe-driven (readiness, debounced) and a
//     per-node circuit breaker ejects workers whose submit path flaps
//     even while their probes pass.
//   - Transient submit failures retry with exponential backoff + jitter
//     on the same node before spilling to the next ring node.
//   - A dead worker's jobs (lost SSE stream + failed liveness confirm)
//     fail over: the recorded canonical request is resubmitted to the
//     next node, under the same gateway job ID.
//   - Under total overload (every queue at backpressure), jobs that
//     opted in via allow_draft run on a local lbub draft tier; the rest
//     shed with 429 + Retry-After.
//   - With a store, every accepted job is WAL'd (submit/begin/finish)
//     and a restarted gateway re-routes the non-terminal ones.
//
// A deployment sets the fleet, the store and whether the draft tier runs.
// The ring, the health debounce, the submit attempts and the draft
// scheduler's size are constants; Options keeps the timings, which tests
// shorten.
package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"time"

	"xplace/internal/jobapi"
	"xplace/internal/jobstore"
	"xplace/internal/obs"
	"xplace/internal/placer"
	"xplace/internal/serve"
)

// Submission errors.
var (
	// ErrOverloaded: every available worker is at backpressure (or down)
	// and the job did not opt into the draft tier. HTTP: 429 + Retry-After.
	ErrOverloaded = errors.New("gateway: all workers at capacity")
	// ErrClosed is returned after Close has begun.
	ErrClosed = errors.New("gateway: shutting down")
)

// badRequest is a deterministic client-side rejection (bad request,
// unknown benchmark): retrying or rerouting cannot fix it. Within this
// package route and submitTo return no other *jobapi.Rejection.
func badRequest(err error) error {
	return &jobapi.Rejection{Code: http.StatusBadRequest, Err: err}
}

func isBadRequest(err error) bool {
	var rej *jobapi.Rejection
	return errors.As(err, &rej) && rej.Code == http.StatusBadRequest
}

// Fixed gateway settings no deployment has needed to change.
const (
	// clientTimeout bounds submits, probes and status polls. Event streams
	// use a dedicated timeout-free client.
	clientTimeout = 10 * time.Second
	// ringReplicas is the virtual-node count per worker on the hash ring.
	ringReplicas = 64
	// downAfter consecutive probe failures mark a node unhealthy, upAfter
	// consecutive successes bring it back.
	downAfter = 2
	upAfter   = 2
	// submitAttempts bounds tries per node for one routing step.
	submitAttempts = 3
	// breakerThreshold consecutive submit failures open a node's circuit
	// breaker for Options.BreakerCooldown.
	breakerThreshold = 3
	// draftEngines and draftQueueCap size the embedded draft scheduler.
	draftEngines  = 1
	draftQueueCap = 4
)

// Options configures a Gateway.
type Options struct {
	// Nodes are the worker base URLs (e.g. http://127.0.0.1:8081).
	Nodes []string

	// ProbePeriod is the readiness-probe interval per node (default
	// 250ms); ProbeTimeout bounds one probe (default ProbePeriod).
	ProbePeriod  time.Duration
	ProbeTimeout time.Duration

	// Transient submit failures back off RetryBase·2^k with jitter, capped
	// at RetryMaxDelay (defaults 25ms and 1s).
	RetryBase     time.Duration
	RetryMaxDelay time.Duration

	// BreakerCooldown is how long an open circuit breaker keeps a node out
	// of routing (default 2s).
	BreakerCooldown time.Duration

	// RetryAfter is the hint returned with 429 responses and the pause
	// between failover routing sweeps (default 1s). RouteWait bounds how
	// long a failover or recovery keeps sweeping for a willing node
	// before the job fails (default 60s).
	RetryAfter time.Duration
	RouteWait  time.Duration

	// Store makes the gateway durable: accepted jobs are WAL'd and a
	// restarted gateway re-routes the non-terminal ones. Must not be
	// shared with a worker's store.
	Store *jobstore.Store
	// Draft enables the local degradation tier: a small embedded scheduler
	// (one engine, a queue of four) that answers allow_draft jobs with an
	// lbub draft placement when the whole fleet is at backpressure.
	Draft bool
}

func (o Options) withDefaults() Options {
	if o.ProbePeriod <= 0 {
		o.ProbePeriod = 250 * time.Millisecond
	}
	if o.ProbeTimeout <= 0 {
		o.ProbeTimeout = o.ProbePeriod
	}
	if o.RetryBase <= 0 {
		o.RetryBase = 25 * time.Millisecond
	}
	if o.RetryMaxDelay <= 0 {
		o.RetryMaxDelay = time.Second
	}
	if o.BreakerCooldown <= 0 {
		o.BreakerCooldown = 2 * time.Second
	}
	if o.RetryAfter <= 0 {
		o.RetryAfter = time.Second
	}
	if o.RouteWait <= 0 {
		o.RouteWait = 60 * time.Second
	}
	return o
}

// Gateway shards placement jobs across a fleet of xserve workers.
type Gateway struct {
	opts   Options
	client *http.Client     // submits, probes, status polls (bounded timeout)
	stream *http.Client     // SSE relays (no timeout; cancelled via ctx)
	ring   *ring            // fixed in New
	nodes  map[string]*node // fixed in New
	reg    *obs.Registry
	store  *jobstore.Store
	draft  *serve.Scheduler // nil unless Options.Draft

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu     sync.Mutex
	jobs   map[int64]*Job
	nextID int64
	closed bool

	routeTotal    *obs.Counter // successful job→node assignments (initial + failover)
	retryTotal    *obs.Counter // transient submit attempts retried
	failoverTotal *obs.Counter // jobs rerun on another node after a worker death
	shedTotal     *obs.Counter // submissions shed with 429 under total overload
	draftTotal    *obs.Counter // submissions degraded to the local draft tier
	breakerTrips  *obs.Counter
	inflight      *obs.Gauge
	walAppends    *obs.Counter
	storeErrors   *obs.Counter
}

// New starts a gateway over the given worker fleet. With Options.Store
// set, the WAL is replayed first: terminal jobs reappear as history and
// non-terminal ones are re-routed to the fleet (the workers' own result
// caches make replayed completions instant).
func New(opts Options) (*Gateway, error) {
	o := opts.withDefaults()
	if len(o.Nodes) == 0 {
		return nil, errors.New("gateway: at least one worker node required")
	}
	reg := obs.NewRegistry()
	ctx, cancel := context.WithCancel(context.Background())
	g := &Gateway{
		opts:   o,
		client: &http.Client{Timeout: clientTimeout},
		stream: &http.Client{},
		ring:   newRing(o.Nodes),
		reg:    reg,
		store:  o.Store,
		ctx:    ctx,
		cancel: cancel,
		nodes:  make(map[string]*node),
		jobs:   make(map[int64]*Job),
	}
	g.routeTotal = reg.Counter("xgate_route_total", "jobs assigned to a worker (initial routes + failovers)")
	g.retryTotal = reg.Counter("xgate_retry_total", "transient submit attempts retried with backoff")
	g.failoverTotal = reg.Counter("xgate_failover_total", "jobs rerun on another node after a worker death")
	g.shedTotal = reg.Counter("xgate_shed_total", "submissions shed with 429 under total overload")
	g.draftTotal = reg.Counter("xgate_draft_total", "submissions degraded to the local lbub draft tier")
	g.breakerTrips = reg.Counter("xgate_breaker_trips_total", "circuit breakers opened on flapping workers")
	g.inflight = reg.Gauge("xgate_jobs_inflight", "gateway jobs not yet terminal")
	g.walAppends = reg.Counter("xgate_wal_appends_total", "records appended to the gateway WAL")
	g.storeErrors = reg.Counter("xgate_store_errors_total", "gateway store operations that failed")

	if o.Draft {
		ds, err := serve.New(serve.Options{Engines: draftEngines, QueueCap: draftQueueCap})
		if err != nil {
			cancel()
			return nil, fmt.Errorf("gateway: starting draft tier: %w", err)
		}
		g.draft = ds
	}

	for _, name := range o.Nodes {
		if g.nodes[name] != nil {
			continue
		}
		n := g.newNode(name)
		g.nodes[name] = n
		g.wg.Add(1)
		go g.probeLoop(n)
	}

	if g.store != nil {
		if err := g.recover(); err != nil {
			_ = g.Close(context.Background())
			return nil, err
		}
	}
	return g, nil
}

// recover replays the gateway WAL: terminal records become visible
// history, non-terminal ones are re-routed under their original IDs.
func (g *Gateway) recover() error {
	recs, err := g.store.Recover()
	if err != nil {
		return fmt.Errorf("gateway: recovering store: %w", err)
	}
	for _, r := range recs {
		if r.ID > g.nextID {
			g.nextID = r.ID
		}
		var req jobapi.Request
		if len(r.Payload) > 0 {
			if uerr := json.Unmarshal(r.Payload, &req); uerr != nil && !r.Terminal() {
				// Unreplayable non-terminal record: surface it as a failed
				// job rather than silently dropping it.
				j := g.newJobLocked(req, nil, r.Key, true, r.ID, r.Submitted)
				j.finishLocked(&jobapi.Status{State: serve.Failed, Err: fmt.Sprintf("gateway: unreplayable WAL payload: %v", uerr)})
				g.jobs[r.ID] = j
				continue
			}
		}
		j := g.newJobLocked(req, append([]byte(nil), r.Payload...), r.Key, true, r.ID, r.Submitted)
		g.jobs[r.ID] = j
		if r.Terminal() {
			j.st = serve.RecoveredStatus(r)
			j.Progress.Close()
			close(j.done)
			continue
		}
		g.inflight.Add(1)
		g.wg.Add(1)
		go func(j *Job) {
			defer g.wg.Done()
			if err := g.routeWithRetry(j, ""); err != nil {
				g.fail(j, fmt.Errorf("gateway: re-routing recovered job: %w", err))
				return
			}
			g.monitorLoop(j)
		}(j)
	}
	// WAL rotation, same policy as the workers: recovery folded the full
	// history, so snapshot it before new appends arrive.
	if _, err := g.store.Compact(); err != nil {
		g.storeErrors.Inc()
	}
	return nil
}

func (g *Gateway) newJobLocked(req jobapi.Request, body []byte, key string, recovered bool, id int64, submitted time.Time) *Job {
	if submitted.IsZero() {
		submitted = time.Now()
	}
	return &Job{
		Progress: serve.NewProgress(),
		id:       id,
		req:      req,
		body:     body,
		key:      key,
		st: jobapi.Status{
			ID: id, Label: req.Label, Submitted: submitted, Recovered: recovered,
		},
		done: make(chan struct{}),
	}
}

// Registry returns the gateway's metrics registry.
func (g *Gateway) Registry() *obs.Registry { return g.reg }

// Draining reports whether Close has begun.
func (g *Gateway) Draining() bool { return g.ctx.Err() != nil }

// Submit validates, normalizes and routes one job. The returned Job is
// the client's single handle for the request's whole life, across any
// number of worker-side retries and failovers.
func (g *Gateway) Submit(req jobapi.Request) (*Job, error) {
	body, key, err := req.Canonical()
	if err != nil {
		return nil, badRequest(err)
	}

	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return nil, &jobapi.Rejection{Code: http.StatusServiceUnavailable, Err: ErrClosed}
	}
	g.nextID++
	id := g.nextID
	g.mu.Unlock()
	j := g.newJobLocked(req, body, key, false, id, time.Time{})

	name, ws, rerr := g.route(key, body, "")
	if rerr == nil {
		j.assign(name, ws)
		g.register(j)
		g.walAppend(func() error { return g.store.AppendSubmit(j.id, j.req.Label, j.body, j.key) })
		g.walAppend(func() error { return g.store.AppendBegin(j.id) })
		g.wg.Add(1)
		go func() {
			defer g.wg.Done()
			g.monitorLoop(j)
		}()
		return j, nil
	}
	if isBadRequest(rerr) {
		return nil, rerr
	}
	// Total overload: every available node is at backpressure or down.
	if req.AllowDraft && g.draft != nil {
		if derr := g.startDraft(j); derr == nil {
			g.register(j)
			g.walAppend(func() error { return g.store.AppendSubmit(j.id, j.req.Label, j.body, j.key) })
			return j, nil
		}
	}
	g.shedTotal.Inc()
	return nil, &jobapi.Rejection{
		Code:       http.StatusTooManyRequests,
		RetryAfter: g.opts.RetryAfter,
		Err:        fmt.Errorf("%w: %v", ErrOverloaded, rerr),
	}
}

func (g *Gateway) register(j *Job) {
	g.mu.Lock()
	g.jobs[j.id] = j
	g.mu.Unlock()
	g.inflight.Add(1)
}

// Job looks a gateway job up by id.
func (g *Gateway) Job(id int64) (*Job, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	j, ok := g.jobs[id]
	return j, ok
}

// Jobs returns every known job, newest first.
func (g *Gateway) Jobs() []*Job {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]*Job, 0, len(g.jobs))
	for _, j := range g.jobs {
		out = append(out, j)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].id > out[b].id })
	return out
}

// Accept, Lookup and List (with Cancel, Draining and Registry) make the
// gateway a jobapi.Service.

// Accept is Submit for the HTTP surface.
func (g *Gateway) Accept(req jobapi.Request) (jobapi.Status, error) {
	j, err := g.Submit(req)
	if err != nil {
		return jobapi.Status{}, err
	}
	return j.Status(), nil
}

// Lookup returns one job's status and its failover-deduplicated
// progress record.
func (g *Gateway) Lookup(id int64) (jobapi.Status, *serve.Progress, bool) {
	j, ok := g.Job(id)
	if !ok {
		return jobapi.Status{}, nil, false
	}
	return j.Status(), j.Progress, true
}

// List returns every known job's status, newest first.
func (g *Gateway) List() []jobapi.Status {
	jobs := g.Jobs()
	out := make([]jobapi.Status, len(jobs))
	for i, j := range jobs {
		out[i] = j.Status()
	}
	return out
}

// Cancel cancels a gateway job, relaying to whichever worker (or the
// draft tier) currently runs it. Returns false for unknown ids.
func (g *Gateway) Cancel(id int64) bool {
	j, ok := g.Job(id)
	if !ok {
		return false
	}
	st := j.Status()
	if st.Draft {
		g.draft.Cancel(st.RemoteID)
	} else if st.Node != "" && st.RemoteID != 0 {
		// Best effort: the monitor observes the worker's terminal state and
		// records it; an unreachable node resolves through failover, where
		// the rerun is then cancelled the same way.
		_, _, _ = g.call(g.ctx, http.MethodPost, fmt.Sprintf("%s/jobs/%d/cancel", st.Node, st.RemoteID), nil)
	}
	return true
}

// call makes one request to a worker on the bounded-timeout client and
// returns the status code and (at most 1 MiB of) the body.
func (g *Gateway) call(ctx context.Context, method, url string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := g.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	return resp.StatusCode, b, nil
}

// route walks the key's ring sequence and tries each available node
// until one accepts. Backpressure (429) and draining (503) spill to the
// next node immediately; transient faults retry with backoff on the
// same node first (submitTo). A deterministic 4xx stops the walk — no
// node will answer differently.
func (g *Gateway) route(key string, body []byte, exclude string) (string, *jobapi.Status, error) {
	seq := g.ring.sequence(key)
	lastErr := errors.New("no worker available")
	for _, name := range seq {
		if name == exclude {
			continue
		}
		n := g.nodes[name]
		if !n.available() {
			continue
		}
		ws, err := g.submitTo(n, body)
		if err == nil {
			n.routed.Inc()
			g.routeTotal.Inc()
			return name, ws, nil
		}
		if isBadRequest(err) {
			return "", nil, err
		}
		lastErr = err
	}
	return "", nil, lastErr
}

// routeWithRetry keeps sweeping the ring (RetryAfter apart) until a
// node accepts or RouteWait elapses — the failover and recovery path,
// where "no node right now" usually means "a node in a few seconds".
func (g *Gateway) routeWithRetry(j *Job, exclude string) error {
	deadline := time.Now().Add(g.opts.RouteWait)
	for {
		name, ws, err := g.route(j.key, j.body, exclude)
		if err == nil {
			j.assign(name, ws)
			g.walAppend(func() error { return g.store.AppendBegin(j.id) })
			return nil
		}
		if isBadRequest(err) || time.Now().After(deadline) {
			return err
		}
		if !g.sleep(g.opts.RetryAfter) {
			return ErrClosed
		}
	}
}

// submitTo posts one job to one node with bounded retry: transient
// faults (network error, 5xx) back off exponentially with jitter and
// feed the node's breaker; backpressure (429/503) returns immediately
// so the router can spill to the next ring node.
func (g *Gateway) submitTo(n *node, body []byte) (*jobapi.Status, error) {
	var lastErr error
	for attempt := 0; attempt < submitAttempts; attempt++ {
		if attempt > 0 {
			g.retryTotal.Inc()
			if !g.sleep(g.backoff(attempt)) {
				return nil, ErrClosed
			}
		}
		start := time.Now()
		code, rb, err := g.call(g.ctx, http.MethodPost, n.name+"/jobs", body)
		if err != nil {
			n.submitFailure(breakerThreshold, g.opts.BreakerCooldown, g.breakerTrips)
			lastErr = fmt.Errorf("node %s: %w", n.name, err)
			continue
		}
		n.latency.Observe(time.Since(start).Seconds())
		switch {
		case code == http.StatusAccepted:
			var ws jobapi.Status
			if uerr := json.Unmarshal(rb, &ws); uerr != nil || ws.ID == 0 {
				n.submitFailure(breakerThreshold, g.opts.BreakerCooldown, g.breakerTrips)
				lastErr = fmt.Errorf("node %s: bad accept body: %v", n.name, uerr)
				continue
			}
			n.submitSuccess()
			return &ws, nil
		case code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable:
			// Backpressure or draining: the node is functioning and telling
			// us "not now" — not a fault, so the breaker stays untouched;
			// spill to the next ring node instead of hammering this one.
			return nil, fmt.Errorf("node %s: %s", n.name, http.StatusText(code))
		case code >= 500:
			n.submitFailure(breakerThreshold, g.opts.BreakerCooldown, g.breakerTrips)
			lastErr = fmt.Errorf("node %s: HTTP %d", n.name, code)
			continue
		default:
			// Deterministic rejection (400-class): every node shares the
			// validation code, so trying another one cannot help.
			return nil, badRequest(errors.New(errorBody(rb, code)))
		}
	}
	return nil, lastErr
}

func errorBody(b []byte, code int) string {
	var e struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(b, &e) == nil && e.Error != "" {
		return e.Error
	}
	return fmt.Sprintf("worker rejected request (HTTP %d)", code)
}

// backoff returns the delay before retry `attempt` (1-based):
// RetryBase·2^(attempt-1), half of it deterministic and half jittered,
// capped at RetryMaxDelay — the standard herd-breaking shape.
func (g *Gateway) backoff(attempt int) time.Duration {
	d := g.opts.RetryBase << (attempt - 1)
	if d > g.opts.RetryMaxDelay || d <= 0 {
		d = g.opts.RetryMaxDelay
	}
	return d/2 + time.Duration(rand.Int63n(int64(d/2)+1))
}

// sleep waits d or until the gateway closes; false on close.
func (g *Gateway) sleep(d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-g.ctx.Done():
		return false
	}
}

func (g *Gateway) walAppend(fn func() error) {
	if g.store == nil {
		return
	}
	if err := fn(); err != nil {
		g.storeErrors.Inc()
		return
	}
	g.walAppends.Inc()
}

// fail ends a job the gateway itself gave up on (no willing node after
// a failover or a recovery).
func (g *Gateway) fail(j *Job, err error) {
	g.finish(j, &jobapi.Status{State: serve.Failed, Err: err.Error()})
}

// finish records a job's terminal status, as reported by its worker (or
// by fail): WAL first, then waiters are released. It returns false when
// ws is not terminal — a malformed report (a status naming an unknown
// state already failed to decode).
func (g *Gateway) finish(j *Job, ws *jobapi.Status) bool {
	if !ws.State.Terminal() {
		return false
	}
	j.mu.Lock()
	won := j.finishLocked(ws)
	j.mu.Unlock()
	if won {
		st := j.Status()
		g.walAppend(func() error {
			return g.store.AppendFinish(j.id, st.State.String(), st.Err, st.Iterations, st.HPWL, st.Overflow, st.Cached)
		})
		g.inflight.Add(-1)
		close(j.done)
	}
	return true
}

// startDraft degrades one allow_draft job to the local lbub tier: the
// same request rewritten to the draft strategy, run on the embedded
// scheduler, never cached (the key names the requested strategy).
func (g *Gateway) startDraft(j *Job) error {
	dreq := j.req
	dreq.Strategy = placer.StrategyLBUB.String()
	spec, err := dreq.ToSpec()
	if err != nil {
		return err
	}
	spec.Key = "" // a draft must never enter any result cache
	sj, err := g.draft.Submit(spec)
	if err != nil {
		return err
	}
	j.mu.Lock()
	j.st.Draft = true
	j.st.RemoteID = sj.ID()
	j.mu.Unlock()
	g.draftTotal.Inc()
	g.wg.Add(1)
	go g.relayDraft(j, sj)
	return nil
}

// relayDraft mirrors an embedded draft job into the gateway job.
func (g *Gateway) relayDraft(j *Job, sj *serve.Job) {
	defer g.wg.Done()
	ch, unsub := sj.Subscribe(64)
	defer unsub()
	for sn := range ch {
		j.observe(sn)
	}
	<-sj.Done()
	st := sj.Status()
	g.finish(j, &st)
}

// Close stops intake, cancels every monitor/probe/relay goroutine and
// shuts the draft tier and store down. In-flight routed jobs keep
// running on their workers; a durable gateway re-adopts them at the
// next start via WAL replay.
func (g *Gateway) Close(ctx context.Context) error {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return nil
	}
	g.closed = true
	g.mu.Unlock()
	g.cancel()
	done := make(chan struct{})
	go func() {
		g.wg.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
	}
	if g.draft != nil {
		if derr := g.draft.Shutdown(ctx); derr != nil && err == nil {
			err = derr
		}
	}
	if g.store != nil {
		if serr := g.store.Close(); serr != nil && err == nil {
			err = serr
		}
	}
	return err
}
