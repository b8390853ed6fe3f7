package gateway

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"xplace/internal/jobapi"
	"xplace/internal/jobstore"
	"xplace/internal/serve"
)

// TestOverloadDraftTierAndShed: with every worker at backpressure, an
// allow_draft job degrades to a real local lbub draft placement while a
// job without the opt-in sheds with 429 + Retry-After — and the xgate_*
// counters account for every routed, shed and drafted submission.
func TestOverloadDraftTierAndShed(t *testing.T) {
	w := newFakeWorker(t, time.Millisecond, 3)
	w.setFull(true) // fleet-wide backpressure (fleet of one)
	opts := fastOpts(w.name())
	opts.Draft = true
	g, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer closeGateway(t, g)

	// No opt-in: shed.
	if _, err := g.Submit(testRequest(10)); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("submit under total overload = %v, want ErrOverloaded", err)
	}
	if got := g.shedTotal.Value(); got != 1 {
		t.Errorf("shed_total = %d, want 1", got)
	}

	// Opt-in: a REAL lbub draft placement on the embedded scheduler.
	req := testRequest(10)
	req.AllowDraft = true
	req.MaxIter = 40
	j, err := g.Submit(req)
	if err != nil {
		t.Fatalf("allow_draft submit under overload: %v", err)
	}
	st := waitDone(t, j, 120*time.Second)
	if st.State != serve.Succeeded {
		t.Fatalf("draft job: %+v", st)
	}
	if !st.Draft {
		t.Error("draft job not labeled as a draft")
	}
	if st.HPWL <= 0 || st.Iterations <= 0 {
		t.Errorf("draft produced no placement: %+v", st)
	}
	if got := g.draftTotal.Value(); got != 1 {
		t.Errorf("draft_total = %d, want 1", got)
	}

	// HTTP shape of the shed: 429 with a Retry-After hint.
	srv := httptest.NewServer(NewMux(g))
	defer srv.Close()
	resp, err := http.Post(srv.URL+"/jobs", "application/json",
		strings.NewReader(`{"bench":"fft_1","scale":0.002,"seed":11}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overloaded submit over HTTP = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 carried no Retry-After header")
	}

	// Accounting closes: every submission this test made is exactly one
	// of routed / shed / drafted.
	if route, shed, draft := g.routeTotal.Value(), g.shedTotal.Value(), g.draftTotal.Value(); route != 0 || shed != 2 || draft != 1 {
		t.Errorf("accounting: route=%d shed=%d draft=%d, want 0/2/1", route, shed, draft)
	}
}

// TestGatewayWALRecovery: a durable gateway that goes down with a job
// in flight re-adopts it on restart — same gateway job ID — by
// re-routing the recorded canonical payload; terminal jobs reappear as
// history without being re-run.
func TestGatewayWALRecovery(t *testing.T) {
	w := newFakeWorker(t, 5*time.Millisecond, 50)
	dir := t.TempDir()

	store, err := jobstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	opts := fastOpts(w.name())
	opts.Store = store
	g1, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}

	// Job 1 completes before the crash.
	j1, err := g1.Submit(testRequest(20))
	if err != nil {
		t.Fatal(err)
	}
	done1 := waitDone(t, j1, 30*time.Second)

	// Job 2 is mid-flight when the gateway dies.
	j2, err := g1.Submit(testRequest(21))
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for j2.Status().Progress == nil {
		if time.Now().After(deadline) {
			t.Fatal("job 2 never progressed")
		}
		time.Sleep(2 * time.Millisecond)
	}
	closeGateway(t, g1) // closes the store too

	// Restart over the same WAL.
	store2, err := jobstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	opts2 := fastOpts(w.name())
	opts2.Store = store2
	g2, err := New(opts2)
	if err != nil {
		t.Fatal(err)
	}
	defer closeGateway(t, g2)

	// Terminal history intact, not re-run.
	r1, ok := g2.Job(j1.id)
	if !ok {
		t.Fatal("finished job lost across restart")
	}
	h1 := r1.Status()
	if h1.State != serve.Succeeded || h1.HPWL != done1.HPWL || h1.Iterations != done1.Iterations {
		t.Errorf("history job changed across restart: %+v vs %+v", h1, done1)
	}
	if !h1.Recovered {
		t.Error("history job not marked recovered")
	}

	// The in-flight job was re-adopted under its original ID and runs to
	// completion.
	r2, ok := g2.Job(j2.id)
	if !ok {
		t.Fatal("in-flight job dropped across restart")
	}
	f2 := waitDone(t, r2, 60*time.Second)
	if f2.State != serve.Succeeded {
		t.Fatalf("recovered job: %+v", f2)
	}
	if !f2.Recovered {
		t.Error("re-adopted job not marked recovered")
	}
}

// TestGatewaySSERelay: the gateway's own /jobs/{id}/events stream
// behaves like a worker's — history then live, Last-Event-ID resume —
// while the job actually runs a network hop away.
func TestGatewaySSERelay(t *testing.T) {
	w := newFakeWorker(t, 10*time.Millisecond, 60)
	g, err := New(fastOpts(w.name()))
	if err != nil {
		t.Fatal(err)
	}
	defer closeGateway(t, g)
	srv := httptest.NewServer(NewMux(g))
	defer srv.Close()

	resp, err := http.Post(srv.URL+"/jobs", "application/json",
		strings.NewReader(`{"bench":"fft_1","scale":0.002,"seed":30,"max_iter":60}`))
	if err != nil {
		t.Fatal(err)
	}
	var acc jobapi.Status
	if err := json.NewDecoder(resp.Body).Decode(&acc); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d (%+v)", resp.StatusCode, acc)
	}

	// First connection: a few events, then drop.
	es1, err := http.Get(srv.URL + "/jobs/1/events")
	if err != nil {
		t.Fatal(err)
	}
	first := readEvents(t, es1.Body, 5)
	es1.Body.Close()
	if len(first) < 5 || first[4].ID < 1 {
		t.Fatalf("first stream: %+v", first)
	}

	// Resume with Last-Event-ID: strictly continues, no replay, no gap.
	req2, _ := http.NewRequest("GET", srv.URL+"/jobs/1/events", nil)
	req2.Header.Set("Last-Event-ID", strconv.Itoa(first[4].ID))
	es2, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	defer es2.Body.Close()
	resumed := readEvents(t, es2.Body, 3)
	if len(resumed) < 3 {
		t.Fatalf("resumed stream: %+v", resumed)
	}
	if resumed[0].ID != first[4].ID+1 {
		t.Errorf("resume started at %d, want %d", resumed[0].ID, first[4].ID+1)
	}
	for i := 1; i < len(resumed); i++ {
		if resumed[i].ID != resumed[i-1].ID+1 {
			t.Fatalf("resumed stream not contiguous: %+v", resumed)
		}
	}
}

// readEvents reads up to n events off a job's stream with the contract's
// own reader.
func readEvents(t *testing.T, body io.Reader, n int) []jobapi.Event {
	t.Helper()
	var out []jobapi.Event
	for r := jobapi.NewEventReader(body); len(out) < n; {
		ev, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, ev)
	}
	return out
}

// TestBadRequestIsDeterministic400: client errors never consume retry
// budget, trip breakers or shed — they are rejected up front.
func TestBadRequestIsDeterministic400(t *testing.T) {
	w := newFakeWorker(t, time.Millisecond, 3)
	g, err := New(fastOpts(w.name()))
	if err != nil {
		t.Fatal(err)
	}
	defer closeGateway(t, g)

	for _, req := range []jobapi.Request{
		{},
		{Bench: "no-such-bench"},
		// Rejected here, not after a worker round trip.
		{Bench: "fft_1", Mode: "bogus"},
		{Bench: "fft_1", Timeout: "-1s"},
	} {
		var rej *jobapi.Rejection
		if _, err := g.Submit(req); !errors.As(err, &rej) || rej.Code != http.StatusBadRequest {
			t.Fatalf("%+v = %v, want a 400 Rejection", req, err)
		}
	}
	if n := w.submitCount(); n != 0 {
		t.Errorf("invalid requests reached the worker %d times", n)
	}
	if g.retryTotal.Value() != 0 || g.shedTotal.Value() != 0 || g.breakerTrips.Value() != 0 {
		t.Errorf("client errors consumed fault budget: retries=%d shed=%d trips=%d",
			g.retryTotal.Value(), g.shedTotal.Value(), g.breakerTrips.Value())
	}
}
