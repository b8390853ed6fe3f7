package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"xplace/internal/jobapi"
	"xplace/internal/serve"
)

func newTestServer(t *testing.T, opts serve.Options) (*httptest.Server, *serve.Scheduler) {
	t.Helper()
	s, err := serve.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(newMux(s))
	t.Cleanup(func() {
		srv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return srv, s
}

func postJSON(t *testing.T, url, body string) (*http.Response, map[string]any) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp, m
}

func TestHTTPSubmitStatusEventsMetrics(t *testing.T) {
	srv, _ := newTestServer(t, serve.Options{Engines: 1, QueueCap: 4, EngineWorkers: 2})

	// Submit a tiny capped job.
	resp, m := postJSON(t, srv.URL+"/jobs",
		`{"bench":"fft_1","scale":0.002,"seed":3,"max_iter":30,"label":"smoke"}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d (%v)", resp.StatusCode, m)
	}
	id := m["id"].(float64)
	if m["state"] != "queued" && m["state"] != "running" {
		t.Fatalf("fresh job state = %v", m["state"])
	}

	// SSE: read progress events until done.
	evResp, err := http.Get(srv.URL + "/jobs/1/events")
	if err != nil {
		t.Fatal(err)
	}
	defer evResp.Body.Close()
	if ct := evResp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events content-type = %q", ct)
	}
	events := readSSE(t, evResp.Body, 1<<20) // to EOF: the stream ends with done
	if n := len(events); n < 2 || events[n-1].Name != jobapi.EventDone || events[0].Name != jobapi.EventProgress {
		t.Fatalf("SSE stream: %d events, want progress... then done: %+v", n, events)
	}

	// Final status over the poll endpoint.
	stResp, err := http.Get(srv.URL + "/jobs/1")
	if err != nil {
		t.Fatal(err)
	}
	var st map[string]any
	if err := json.NewDecoder(stResp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	stResp.Body.Close()
	if st["id"].(float64) != id || st["state"] != "succeeded" {
		t.Fatalf("final status = %v", st)
	}
	if st["hpwl"].(float64) <= 0 {
		t.Fatalf("final HPWL = %v", st["hpwl"])
	}

	// Metrics endpoint exports the counters. The done event is written only
	// once the job is counted and its worker has given back the job's arena
	// scratch, so the scrape needs no wait.
	mResp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, err := io.ReadAll(mResp.Body)
	mResp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"xserve_jobs_submitted 1",
		"xserve_jobs_succeeded 1",
		"xserve_jobs_active 0",
		"xserve_gp_iterations_total 30",
		`xserve_arena_in_use_bytes{engine="0"} 0`,
	} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("metrics missing %q in:\n%s", want, metrics)
		}
	}

	// pprof is mounted.
	pResp, err := http.Get(srv.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	pResp.Body.Close()
	if pResp.StatusCode != http.StatusOK {
		t.Errorf("pprof status = %d", pResp.StatusCode)
	}
}
