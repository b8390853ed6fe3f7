package serve

import (
	"context"
	"math"
	"strings"
	"testing"
	"time"

	"xplace/internal/placer"
)

// TestJobsNewestFirst: Jobs() documents "newest first" — the order must
// be descending id, not Go map iteration order (which the original
// implementation leaked, making /jobs listings shuffle between calls).
func TestJobsNewestFirst(t *testing.T) {
	s := mustNew(t, Options{Engines: 1, QueueCap: 32, EngineWorkers: 1})
	defer s.Shutdown(context.Background())

	d := testDesign(t, 60, 5)
	const n = 24
	for i := 0; i < n; i++ {
		j, err := s.Submit(Spec{Design: d, Options: testOpts(1)})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := j.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	jobs := s.Jobs()
	if len(jobs) != n {
		t.Fatalf("Jobs() returned %d jobs, want %d", len(jobs), n)
	}
	for i, j := range jobs {
		if want := int64(n - i); j.ID() != want {
			t.Fatalf("Jobs()[%d].ID() = %d, want %d (newest first)", i, j.ID(), want)
		}
	}
}

// TestCancelBeginAtomic: Cancel's queued-check and terminal transition
// are one atomic step. The historical race — Cancel observes Queued, a
// worker begins the job, Cancel's unlocked finish then marks the now
// *running* job Canceled — left jobs in Canceled with a start time but
// no result, the run's outcome silently discarded. Post-fix invariant: a
// Canceled job that started always carries its partial result.
func TestCancelBeginAtomic(t *testing.T) {
	s := mustNew(t, Options{Engines: 2, QueueCap: 4, EngineWorkers: 1})
	defer s.Shutdown(context.Background())

	d := testDesign(t, 80, 2)
	for i := 0; i < 150; i++ {
		j, err := s.Submit(Spec{Design: d, Options: testOpts(40)})
		if err != nil {
			t.Fatal(err)
		}
		// Jitter the cancel across the submit->begin window so some cancels
		// land while queued and some race the worker's begin.
		time.Sleep(time.Duration(i%40) * time.Microsecond)
		s.Cancel(j.ID())
		<-j.Done()
		st := j.Status()
		res, jerr := j.Result()
		switch {
		case st.State == Canceled && st.Started == nil:
			if res != nil {
				t.Fatalf("iter %d: cancelled-while-queued job has a result", i)
			}
		case st.State == Canceled:
			if res == nil {
				t.Fatalf("iter %d: job began (started %v) but Canceled with nil result — cancel raced begin and discarded the run (err=%v)",
					i, st.Started, jerr)
			}
		case st.State == Succeeded:
			// Cancel lost the whole race; fine.
		default:
			t.Fatalf("iter %d: unexpected terminal state %v (err=%v)", i, st.State, jerr)
		}
	}
}

// TestShutdownRepeatHonorsCtx: a repeat Shutdown call must honor its own
// context and report the drain outcome. The original implementation made
// any second call block unconditionally on wg.Wait() with no cancel path
// and return nil regardless of how the drain ended.
func TestShutdownRepeatHonorsCtx(t *testing.T) {
	s := mustNew(t, Options{Engines: 1, QueueCap: 2, EngineWorkers: 1})
	// The running job must outlive the test unless cancelled: pin MinIter to
	// MaxIter so the convergence stop cannot end it early.
	longOpts := testOpts(500000)
	longOpts.Sched.MinIter = 500000
	j, err := s.Submit(Spec{Design: testDesign(t, 200, 4), Options: longOpts})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j, Running)

	firstDone := make(chan error, 1)
	go func() { firstDone <- s.Shutdown(context.Background()) }()
	time.Sleep(20 * time.Millisecond) // let the first call start the drain

	// Second call with an already-expired ctx: must cancel the remaining
	// jobs and return promptly with the cut-short error — not block behind
	// the (effectively unbounded) running job.
	expired, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	if err := s.Shutdown(expired); err == nil {
		t.Fatal("repeat Shutdown with expired ctx returned nil")
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("repeat Shutdown blocked %v despite expired ctx", elapsed)
	}

	// The first caller's drain was cut short; it must say so.
	select {
	case err := <-firstDone:
		if err == nil {
			t.Error("first Shutdown returned nil after its drain was cut short")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("first Shutdown never returned")
	}

	// Later calls keep reporting the recorded outcome, promptly.
	if err := s.Shutdown(expired); err == nil {
		t.Error("post-drain Shutdown swallowed the cut-short outcome")
	}
	if st := j.Status().State; st != Canceled {
		t.Errorf("drained job state = %v, want Canceled", st)
	}
}

// TestShutdownCleanRepeatNil: after a clean drain, repeat calls return
// nil — idempotence must not invent an error.
func TestShutdownCleanRepeatNil(t *testing.T) {
	s := mustNew(t, Options{Engines: 1, QueueCap: 2, EngineWorkers: 1})
	j, err := s.Submit(Spec{Design: testDesign(t, 60, 6), Options: testOpts(5)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("clean Shutdown: %v", err)
	}
	expired, cancel := context.WithCancel(context.Background())
	cancel()
	if err := s.Shutdown(expired); err != nil {
		t.Fatalf("repeat Shutdown after clean drain: %v", err)
	}
}

// TestPanickingJobFailsWorkerKeepsServing: a panic in a job's placement
// (here a host-side ExtraGradient hook at iteration 3) fails that job with
// a message naming the panic, and the one engine goes on to run the next
// job. Both good jobs match solo runs bit for bit, and the engine's arena
// and the active gauge are back at their pre-job values.
func TestPanickingJobFailsWorkerKeepsServing(t *testing.T) {
	good := func(seed int64) Spec {
		return Spec{Design: testDesign(t, 200, seed), Options: testOpts(30)}
	}
	solo := func(spec Spec) *placer.Result {
		s := mustNew(t, Options{Engines: 1, QueueCap: 1, EngineWorkers: 2})
		defer s.Shutdown(context.Background())
		j, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		res, err := j.Wait(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	want := []*placer.Result{solo(good(1)), solo(good(2))}

	s := mustNew(t, Options{Engines: 1, QueueCap: 3, EngineWorkers: 2})
	defer s.Shutdown(context.Background())
	inUse := s.engines[0].ArenaStats().InUse
	poisoned := good(3)
	poisoned.Options.ExtraGradient = func(iter int, x, y, gx, gy []float64) {
		if iter == 3 {
			panic("poisoned gradient hook")
		}
	}
	var jobs []*Job
	for _, spec := range []Spec{good(1), poisoned, good(2)} {
		j, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	for _, j := range jobs {
		<-j.Done()
	}

	if st := jobs[1].Status(); st.State != Failed || !strings.Contains(st.Err, "panicked: poisoned gradient hook") {
		t.Errorf("poisoned job: state %v, error %q; want failed naming the panic", st.State, st.Err)
	}
	for i, j := range []*Job{jobs[0], jobs[2]} {
		res, err := j.Result()
		if err != nil {
			t.Fatalf("good job %d: %v", i, err)
		}
		if !sameBits(res.X, want[i].X) || !sameBits(res.Y, want[i].Y) ||
			math.Float64bits(res.HPWL) != math.Float64bits(want[i].HPWL) || res.Iterations != want[i].Iterations {
			t.Errorf("good job %d: HPWL %v after %d iterations, solo %v after %d (must be bit-identical)",
				i, res.HPWL, res.Iterations, want[i].HPWL, want[i].Iterations)
		}
	}
	if got := s.engines[0].ArenaStats().InUse; got != inUse {
		t.Errorf("arena in use %d bytes after the jobs, %d before", got, inUse)
	}
	if c := s.Counters(); c.Active != 0 || c.Failed != 1 || c.Succeeded != 2 {
		t.Errorf("counters %+v, want 0 active, 1 failed, 2 succeeded", c)
	}
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
