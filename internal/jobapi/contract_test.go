package jobapi_test

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"xplace/internal/gateway"
	"xplace/internal/jobapi"
	"xplace/internal/serve"
)

// backend is one deployment of the job API: jobapi.NewMux over a
// Service. The contract suite runs unchanged against each.
type backend struct {
	name  string
	url   string
	drain func() // begins the Service's shutdown (does not wait for it)
}

// newWorker serves a one-engine scheduler through the job API.
func newWorker(t *testing.T) (*httptest.Server, *serve.Scheduler) {
	t.Helper()
	s, err := serve.New(serve.Options{Engines: 1, QueueCap: 8, EngineWorkers: 1, LaunchOverhead: 0})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(jobapi.NewMux(unendingLong{jobapi.ForScheduler(s), s}))
	t.Cleanup(func() {
		srv.Close()
		for _, j := range s.Jobs() {
			s.Cancel(j.ID())
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("scheduler shutdown: %v", err)
		}
	})
	return srv, s
}

// unendingLong is the worker's Service with one test seam: a request
// labelled "long" cannot converge (MinIter pinned to its iteration cap),
// so it runs until a test cancels it. No wire field can ask for that.
type unendingLong struct {
	jobapi.Service
	s *serve.Scheduler
}

func (u unendingLong) Accept(req jobapi.Request) (jobapi.Status, error) {
	if req.Label != "long" {
		return u.Service.Accept(req)
	}
	spec, err := req.ToSpec()
	if err != nil {
		return jobapi.Status{}, err
	}
	spec.Options.Sched.MinIter = spec.Options.Sched.MaxIter
	j, err := u.s.Submit(spec)
	if err != nil {
		return jobapi.Status{}, err
	}
	return j.Status(), nil
}

func schedulerBackend(t *testing.T) backend {
	srv, s := newWorker(t)
	return backend{"scheduler", srv.URL, func() {
		go s.Shutdown(context.Background()) // the worker cleanup cancels what it waits on
	}}
}

// gatewayBackend is a gateway over one in-process worker, so every
// request crosses both deployments of the mux.
func gatewayBackend(t *testing.T) backend {
	worker, _ := newWorker(t)
	// A loaded test machine must not get the only node marked down.
	g, err := gateway.New(gateway.Options{Nodes: []string{worker.URL}, ProbeTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(gateway.NewMux(g))
	t.Cleanup(func() {
		srv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := g.Close(ctx); err != nil { // a no-op after drain
			t.Errorf("gateway close: %v", err)
		}
	})
	return backend{"gateway", srv.URL, func() { go g.Close(context.Background()) }}
}

// statusKeys is the golden key set of the wire Status: the union of what
// xserve and xgate emit. Renaming or dropping one breaks deployed clients.
var statusKeys = []string{
	"id", "label", "state", "error", "node", "remote_id", "draft", "failovers",
	"submitted", "started", "finished", "progress", "iterations", "hpwl", "overflow",
	"cached", "recovered", "resumed", "fallback",
}

// gatewayKeys are the Status keys only a gateway sets.
var gatewayKeys = []string{"node", "remote_id", "draft", "failovers"}

func TestStatusKeysAreGolden(t *testing.T) {
	var got []string
	typ := reflect.TypeOf(jobapi.Status{})
	for i := 0; i < typ.NumField(); i++ {
		key, _, _ := strings.Cut(typ.Field(i).Tag.Get("json"), ",")
		got = append(got, key)
	}
	if !slices.Equal(got, statusKeys) {
		t.Fatalf("Status JSON keys = %v, want %v", got, statusKeys)
	}
}

// call makes one request and decodes a JSON object body (nil for other
// bodies).
func call(t *testing.T, method, url, body string) (*http.Response, map[string]any) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m map[string]any
	_ = json.NewDecoder(resp.Body).Decode(&m)
	return resp, m
}

func (b backend) submit(t *testing.T, body string) int {
	t.Helper()
	resp, m := call(t, "POST", b.url+"/jobs", body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit %s: %d (%v)", body, resp.StatusCode, m)
	}
	b.checkKeys(t, m, "id", "label", "state", "submitted")
	return int(m["id"].(float64))
}

// checkKeys: every key is a known one, the required ones are present,
// and the gateway-only ones appear exactly on the gateway.
func (b backend) checkKeys(t *testing.T, m map[string]any, required ...string) {
	t.Helper()
	for k := range m {
		if !slices.Contains(statusKeys, k) {
			t.Errorf("status carries unknown key %q: %v", k, m)
		}
		if b.name != "gateway" && slices.Contains(gatewayKeys, k) {
			t.Errorf("worker status carries gateway key %q: %v", k, m)
		}
	}
	for _, k := range required {
		if _, ok := m[k]; !ok {
			t.Errorf("status lacks %q: %v", k, m)
		}
	}
}

// waitFor polls a job's status until ok accepts it.
func (b backend) waitFor(t *testing.T, id int, what string, ok func(map[string]any) bool) map[string]any {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		_, m := call(t, "GET", fmt.Sprintf("%s/jobs/%d", b.url, id), "")
		if ok(m) {
			return m
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %d never %s", id, what)
	return nil
}

func inState(state string) func(map[string]any) bool {
	return func(m map[string]any) bool { return m["state"] == state }
}

func progressIter(m map[string]any) int {
	p, _ := m["progress"].(map[string]any)
	iter, _ := p["Iter"].(float64)
	return int(iter)
}

// stream opens a job's event stream. The headers arrive once the server
// has subscribed, so no later snapshot can be missed.
func (b backend) stream(t *testing.T, id, lastEventID int) (*jobapi.EventReader, func()) {
	t.Helper()
	req, err := http.NewRequest("GET", fmt.Sprintf("%s/jobs/%d/events", b.url, id), nil)
	if err != nil {
		t.Fatal(err)
	}
	if lastEventID >= 0 {
		req.Header.Set("Last-Event-ID", strconv.Itoa(lastEventID))
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); resp.StatusCode != http.StatusOK || ct != "text/event-stream" {
		t.Fatalf("events: %d, content-type %q", resp.StatusCode, ct)
	}
	return jobapi.NewEventReader(resp.Body), func() { resp.Body.Close() }
}

// readToEnd drains a stream: the progress iterations in order, then the
// closing event.
func readToEnd(t *testing.T, r *jobapi.EventReader) (iters []int, last jobapi.Event) {
	t.Helper()
	for {
		ev, err := r.Next()
		if err == io.EOF {
			return iters, last
		}
		if err != nil {
			t.Fatal(err)
		}
		if last = ev; ev.Name == jobapi.EventProgress {
			iters = append(iters, ev.ID)
		}
	}
}

// wantRun: iters is first, first+1, ... with no gap and no duplicate.
func wantRun(t *testing.T, iters []int, first int) {
	t.Helper()
	for i, it := range iters {
		if it != first+i {
			t.Fatalf("iterations %v: want a contiguous run from %d", iters, first)
		}
	}
}

const (
	quickJob = `{"bench":"fft_1","scale":0.002,"seed":3,"max_iter":30,"label":"quick"}`
	// longJob runs until cancelled (see unendingLong), slowly enough that
	// neither the 512-snapshot ring nor a stream's buffer can overrun
	// within a test step.
	longJob = `{"bench":"fft_1","scale":0.1,"seed":1,"max_iter":10000000,"label":"long"}`
)

// rejections is the validation table: every malformed request is refused
// up front with the same code and the same message on both backends.
var rejections = []struct {
	name, body string
	code       int
}{
	{"malformed json", `{`, 400},
	{"missing bench", `{}`, 400},
	{"unknown bench", `{"bench":"no-such-bench"}`, 400},
	{"negative scale", `{"bench":"fft_1","scale":-0.5}`, 400},
	{"negative grid", `{"bench":"fft_1","grid":-4}`, 400},
	{"negative max_iter", `{"bench":"fft_1","max_iter":-1}`, 400},
	{"negative timeout", `{"bench":"fft_1","timeout":"-1s"}`, 400},
	{"unparseable timeout", `{"bench":"fft_1","timeout":"potato"}`, 400},
	{"non-numeric scale", `{"bench":"fft_1","scale":"big"}`, 400},
	{"unknown mode", `{"bench":"fft_1","mode":"bogus"}`, 400},
	{"unknown strategy", `{"bench":"fft_1","strategy":"annealing"}`, 400},
	{"model name with separator", `{"bench":"fft_1","model":"a|b"}`, 400},
	{"unknown model", `{"bench":"fft_1","model":"ghost"}`, 400},
	{"oversize body", `{"bench":"fft_1","label":"` + strings.Repeat("x", jobapi.MaxRequestBytes) + `"}`, 413},
}

// TestContract is the one HTTP contract suite, run against a
// scheduler-backed mux and a gateway-backed mux over one in-process
// worker.
func TestContract(t *testing.T) {
	messages := map[string][]string{} // backend -> rejection messages, in table order
	for _, mk := range []func(*testing.T) backend{schedulerBackend, gatewayBackend} {
		b := mk(t)
		t.Run(b.name, func(t *testing.T) {
			t.Run("probes", b.probes)
			t.Run("rejections", func(t *testing.T) { messages[b.name] = b.rejections(t) })
			t.Run("job_id", b.jobID)
			t.Run("lifecycle", b.lifecycle)
			t.Run("events", b.events)
			t.Run("cancel", b.cancel)
			t.Run("draining", b.draining) // last: the backend does not come back
		})
	}
	if s, g := messages["scheduler"], messages["gateway"]; !slices.Equal(s, g) {
		t.Errorf("rejection messages differ between the surfaces:\nscheduler %q\ngateway   %q", s, g)
	}
}

func (b backend) probes(t *testing.T) {
	for path, want := range map[string]string{"/healthz": "ok", "/readyz": "ready"} {
		if resp, m := call(t, "GET", b.url+path, ""); resp.StatusCode != http.StatusOK || m["status"] != want {
			t.Errorf("%s = %d %v, want 200 %q", path, resp.StatusCode, m, want)
		}
	}
	resp, _ := call(t, "GET", b.url+"/metrics", "")
	if ct := resp.Header.Get("Content-Type"); resp.StatusCode != http.StatusOK || ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Errorf("/metrics = %d, content-type %q", resp.StatusCode, ct)
	}
}

func (b backend) rejections(t *testing.T) (messages []string) {
	for _, tc := range rejections {
		resp, m := call(t, "POST", b.url+"/jobs", tc.body)
		msg, _ := m["error"].(string)
		if resp.StatusCode != tc.code || msg == "" {
			t.Errorf("%s: %d %v, want %d with an error message", tc.name, resp.StatusCode, m, tc.code)
		}
		messages = append(messages, msg)
	}
	// Nothing was enqueued.
	resp, err := http.Get(b.url + "/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var jobs []any
	if err := json.NewDecoder(resp.Body).Decode(&jobs); err != nil || len(jobs) != 0 {
		t.Errorf("after rejected submissions GET /jobs = %v (%v), want []", jobs, err)
	}
	return messages
}

func (b backend) jobID(t *testing.T) {
	for _, tc := range []struct {
		method, path string
		code         int
	}{
		{"GET", "/jobs/abc", 400},
		{"GET", "/jobs/abc/events", 400},
		{"POST", "/jobs/abc/cancel", 400},
		{"GET", "/jobs/999", 404},
		{"GET", "/jobs/999/events", 404},
		{"POST", "/jobs/999/cancel", 404},
	} {
		if resp, m := call(t, tc.method, b.url+tc.path, ""); resp.StatusCode != tc.code || m["error"] == nil {
			t.Errorf("%s %s = %d %v, want %d with an error message", tc.method, tc.path, resp.StatusCode, m, tc.code)
		}
	}
}

func (b backend) lifecycle(t *testing.T) {
	id := b.submit(t, quickJob)
	st := b.waitFor(t, id, "succeeded", inState("succeeded"))
	required := []string{"id", "label", "state", "submitted", "started", "finished", "progress", "iterations", "hpwl", "overflow"}
	if b.name == "gateway" {
		required = append(required, "node", "remote_id")
	}
	b.checkKeys(t, st, required...)
	if st["label"] != "quick" || st["iterations"] != 30.0 || !(st["hpwl"].(float64) > 0) {
		t.Errorf("final status = %v", st)
	}
	resp, err := http.Get(b.url + "/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list []map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil || len(list) != 1 || !reflect.DeepEqual(list[0], st) {
		t.Errorf("GET /jobs = %v (%v), want [%v]", list, err, st)
	}
}

// events: history then live on a running job; every iteration exactly
// once then done on a job streamed from before its first iteration; full
// replay and Last-Event-ID resume from the ring after it finished.
func (b backend) events(t *testing.T) {
	// The long job holds the worker's single engine.
	long := b.submit(t, longJob)
	hist := progressIter(b.waitFor(t, long, "progressed", func(m map[string]any) bool { return progressIter(m) >= 3 }))
	r, closeStream := b.stream(t, long, -1)
	// Whatever iteration the job has reached now, the stream's subscription
	// predates it: anything later can only arrive live.
	_, st := call(t, "GET", fmt.Sprintf("%s/jobs/%d", b.url, long), "")
	var iters []int
	for len(iters) == 0 || iters[len(iters)-1] <= progressIter(st) {
		ev, err := r.Next()
		if err != nil || ev.Name != jobapi.EventProgress {
			t.Fatalf("running job's stream: %+v, %v", ev, err)
		}
		iters = append(iters, ev.ID)
	}
	closeStream()
	if iters[0] > hist {
		t.Errorf("stream began at iteration %d with %d in the ring: no history replayed", iters[0], hist)
	}
	// A subscriber that falls behind a fast job may miss snapshots, never
	// see one twice or out of order.
	if !slices.IsSorted(iters) || len(slices.Compact(slices.Clone(iters))) != len(iters) {
		t.Errorf("running job's stream not strictly increasing: %v", iters)
	}

	// Queued behind the long job, streamed before it runs: all live.
	quick := b.submit(t, quickJob)
	r, closeStream = b.stream(t, quick, -1)
	defer closeStream()
	if resp, m := call(t, "POST", fmt.Sprintf("%s/jobs/%d/cancel", b.url, long), ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel: %d %v", resp.StatusCode, m)
	}
	iters, last := readToEnd(t, r)
	var done map[string]any
	if last.Name != jobapi.EventDone || json.Unmarshal(last.Data, &done) != nil {
		t.Fatalf("stream ended with %+v, want done", last)
	}
	b.checkKeys(t, done, "id", "state", "iterations", "hpwl", "finished")
	if done["state"] != "succeeded" || done["iterations"] != float64(len(iters)) || done["id"] != float64(quick) {
		t.Errorf("done event %v after %d iterations", done, len(iters))
	}
	wantRun(t, iters, 1)

	// Finished: the ring replays everything, or what follows Last-Event-ID.
	for _, after := range []int{-1, 10, len(iters)} {
		r, closeStream := b.stream(t, quick, after)
		replay, last := readToEnd(t, r)
		closeStream()
		if last.Name != jobapi.EventDone || len(replay) != len(iters)-max(after, 0) {
			t.Errorf("replay after %d: %d iterations then %q, want %d then done", after, len(replay), last.Name, len(iters)-max(after, 0))
		}
		wantRun(t, replay, max(after, 0)+1)
	}
}

func (b backend) cancel(t *testing.T) {
	id := b.submit(t, longJob)
	b.waitFor(t, id, "running", inState("running"))
	resp, m := call(t, "POST", fmt.Sprintf("%s/jobs/%d/cancel", b.url, id), "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel: %d %v", resp.StatusCode, m)
	}
	b.checkKeys(t, m, "id", "state")
	st := b.waitFor(t, id, "canceled", inState("canceled"))
	b.checkKeys(t, st, "id", "state", "error", "finished")
	// Cancelling a finished job is a no-op that still answers its status.
	if resp, m := call(t, "POST", fmt.Sprintf("%s/jobs/%d/cancel", b.url, id), ""); resp.StatusCode != http.StatusOK || m["state"] != "canceled" {
		t.Errorf("second cancel: %d %v", resp.StatusCode, m)
	}
}

// draining: once shutdown begins, open streams end with "draining"
// instead of holding the HTTP server's graceful shutdown hostage, /readyz
// turns 503 while /healthz stays 200 (draining is not dead), and
// submissions are refused with 503.
func (b backend) draining(t *testing.T) {
	id := b.submit(t, longJob)
	b.waitFor(t, id, "running", inState("running"))
	r, closeStream := b.stream(t, id, -1)
	defer closeStream()
	b.drain()

	ended := make(chan jobapi.Event, 1)
	go func() {
		var last jobapi.Event
		for ev, err := r.Next(); err == nil; ev, err = r.Next() {
			last = ev
		}
		ended <- last
	}()
	select {
	case last := <-ended:
		if last.Name != jobapi.EventDraining {
			t.Errorf("stream ended with %q, want draining", last.Name)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("event stream still open 15s into the drain")
	}
	if resp, m := call(t, "GET", b.url+"/readyz", ""); resp.StatusCode != http.StatusServiceUnavailable || m["status"] != "draining" {
		t.Errorf("/readyz during drain = %d %v, want 503 draining", resp.StatusCode, m)
	}
	if resp, _ := call(t, "GET", b.url+"/healthz", ""); resp.StatusCode != http.StatusOK {
		t.Errorf("/healthz during drain = %d, want 200", resp.StatusCode)
	}
	if resp, m := call(t, "POST", b.url+"/jobs", quickJob); resp.StatusCode != http.StatusServiceUnavailable || m["error"] == nil {
		t.Errorf("submit during drain = %d %v, want 503", resp.StatusCode, m)
	}
}
