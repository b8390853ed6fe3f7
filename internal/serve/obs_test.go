package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"time"
)

// TestSnapshotIterMatchesResultIterations pins the Snapshot/Result
// ordering contract: for completed, cancelled and timed-out jobs alike,
// the last delivered snapshot's Iter equals Result.Iterations — progress
// consumers and the final result can never disagree about how far a job
// got.
func TestSnapshotIterMatchesResultIterations(t *testing.T) {
	s := mustNew(t, Options{Engines: 3, QueueCap: 8, EngineWorkers: 1, LaunchOverhead: 0})
	defer s.Shutdown(context.Background())

	check := func(name string, j *Job, wantErr error) {
		t.Helper()
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		res, err := j.Wait(ctx)
		if wantErr == nil && err != nil {
			t.Fatalf("%s: err = %v", name, err)
		}
		if wantErr != nil && !errors.Is(err, wantErr) {
			t.Fatalf("%s: err = %v, want %v", name, err, wantErr)
		}
		if res == nil {
			t.Fatalf("%s: no result (partial results must survive %v)", name, wantErr)
		}
		snaps := j.Snapshots()
		if len(snaps) == 0 {
			t.Fatalf("%s: no snapshots", name)
		}
		last := snaps[len(snaps)-1].Iter
		if last != res.Iterations {
			t.Errorf("%s: last snapshot iter %d != Result.Iterations %d", name, last, res.Iterations)
		}
		if first := snaps[0].Iter; first != 1 {
			t.Errorf("%s: first snapshot iter = %d, want 1 (1-based)", name, first)
		}
	}

	// Completed job.
	done, err := s.Submit(Spec{Design: testDesign(t, 150, 11), Options: testOpts(30), Label: "done"})
	if err != nil {
		t.Fatal(err)
	}
	check("completed", done, nil)

	// Cancelled mid-run. MinIter pins the loop so the job cannot converge
	// before we interrupt it.
	longOpts := testOpts(100000)
	longOpts.Sched.MinIter = 100000
	canceled, err := s.Submit(Spec{Design: testDesign(t, 900, 12), Options: longOpts, Label: "cancel"})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, canceled, Running)
	deadline := time.Now().Add(30 * time.Second)
	for len(canceled.Snapshots()) < 3 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	s.Cancel(canceled.ID())
	check("cancelled", canceled, context.Canceled)

	// Timed out mid-run. The design is large enough that the run stops well
	// short of the progress ring's capacity, so its first snapshot is kept.
	timed, err := s.Submit(Spec{Design: testDesign(t, 3000, 13), Options: longOpts,
		Label: "timeout", Timeout: 150 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	check("timed-out", timed, context.DeadlineExceeded)
}

// TestPerJobTrace checks the Spec.Trace path: a traced job accumulates an
// operator trace (kernels, groups and counter tracks) exportable as valid
// Chrome trace_event JSON, while untraced jobs carry no tracer.
func TestPerJobTrace(t *testing.T) {
	s := mustNew(t, Options{Engines: 1, QueueCap: 4, EngineWorkers: 1, LaunchOverhead: 0})
	defer s.Shutdown(context.Background())

	d := testDesign(t, 150, 21)
	traced, err := s.Submit(Spec{Design: d, Options: testOpts(20), Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := s.Submit(Spec{Design: d, Options: testOpts(20)})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if _, err := traced.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := plain.Wait(ctx); err != nil {
		t.Fatal(err)
	}

	if plain.Tracer() != nil {
		t.Error("untraced job has a tracer")
	}
	tr := traced.Tracer()
	if tr == nil {
		t.Fatal("traced job has no tracer")
	}
	counts := tr.KernelLaunchCounts()
	if len(counts) == 0 {
		t.Fatal("trace recorded no kernel launches")
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("empty trace")
	}

	// The traced job's kernels did not leak into the pooled engine after
	// the job: the tracer is detached, so a later untraced job must not
	// have grown the trace. (plain ran on the same single engine.)
	n := tr.Len()
	if n == 0 {
		t.Fatal("trace empty after job")
	}
}

// TestSchedulerRegistryExposition checks that one scrape of the scheduler
// registry carries the runtime series, the per-engine gauges and the
// placer's paper-optimization series, without touching job locks.
func TestSchedulerRegistryExposition(t *testing.T) {
	s := mustNew(t, Options{Engines: 2, QueueCap: 4, EngineWorkers: 1, LaunchOverhead: 0})
	defer s.Shutdown(context.Background())

	j, err := s.Submit(Spec{Design: testDesign(t, 150, 31), Options: testOpts(25)})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if _, err := j.Wait(ctx); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := s.Registry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"xserve_jobs_submitted 1",
		"xserve_jobs_succeeded 1",
		"xserve_gp_iterations_total 25",
		`xserve_engine_workers{engine="0"} 1`,
		`xserve_engine_workers{engine="1"} 1`,
		`xserve_arena_in_use_bytes{engine=`,
		"xserve_job_seconds_count 1",
		"xplace_gp_iterations_total 25",
		"xplace_oc_fused_launches_saved_total",
		"xplace_os_density_skips_total",
		"xplace_oe_map_reuses_total",
		"xplace_stage_omega",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("scrape missing %q", want)
		}
	}
	if t.Failed() {
		t.Logf("scrape:\n%s", out)
	}
}
