package main

import (
	"io"
	"net/http"
	"strconv"
	"testing"
	"time"

	"xplace/internal/jobapi"
	"xplace/internal/serve"
)

// readSSE reads up to n events off a job's stream with the contract's
// own reader.
func readSSE(t *testing.T, body io.Reader, n int) []jobapi.Event {
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

// TestSSEResumeWithLastEventID: a progress stream that drops mid-job
// resumes from the snapshot ring when the client reconnects with
// Last-Event-ID — the first replayed event is the iteration right after
// the last one delivered, not a replay from iteration 1.
func TestSSEResumeWithLastEventID(t *testing.T) {
	srv, s := newTestServer(t, serve.Options{Engines: 1, QueueCap: 2, EngineWorkers: 1})

	req := jobapi.Request{Bench: "fft_1", Scale: 0.01, MaxIter: 500000}
	spec, err := req.ToSpec()
	if err != nil {
		t.Fatal(err)
	}
	spec.Options.Sched.MinIter = 500000 // convergence cannot end it mid-test
	j, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}

	// First connection: take a handful of progress events, then drop the
	// stream mid-job (client disconnect, not job completion).
	resp1, err := http.Get(srv.URL + "/jobs/1/events")
	if err != nil {
		t.Fatal(err)
	}
	events := readSSE(t, resp1.Body, 5)
	resp1.Body.Close()
	if len(events) < 5 {
		t.Fatalf("first stream delivered %d events, want 5", len(events))
	}
	last := events[len(events)-1]
	if last.Name != jobapi.EventProgress || last.ID < 1 {
		t.Fatalf("unexpected event before disconnect: %+v", last)
	}

	// Let the job advance past the disconnect point so a from-scratch
	// replay would be distinguishable from a resume.
	deadline := time.Now().Add(30 * time.Second)
	for j.Status().Progress.Iter <= last.ID+3 {
		if time.Now().After(deadline) {
			t.Fatal("job stopped progressing")
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Reconnect as an EventSource client would: Last-Event-ID names the
	// last delivered iteration.
	req2, err := http.NewRequest("GET", srv.URL+"/jobs/1/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	req2.Header.Set("Last-Event-ID", strconv.Itoa(last.ID))
	resp2, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	resumed := readSSE(t, resp2.Body, 3)
	if len(resumed) < 3 {
		t.Fatalf("resumed stream delivered %d events, want 3", len(resumed))
	}
	if resumed[0].Name != jobapi.EventProgress {
		t.Fatalf("first resumed event = %+v, want progress", resumed[0])
	}
	// The ring still holds every iteration (512 snapshots), so the
	// resume must continue exactly where the stream left off: no replay
	// from iteration 1, no gap.
	if resumed[0].ID != last.ID+1 {
		t.Fatalf("resumed stream started at iteration %d, want %d (last delivered %d)",
			resumed[0].ID, last.ID+1, last.ID)
	}
	for i := 1; i < len(resumed); i++ {
		if resumed[i].ID != resumed[i-1].ID+1 {
			t.Fatalf("resumed stream not contiguous: %+v", resumed)
		}
	}
	s.Cancel(j.ID())
}
