package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"testing"
	"time"

	"xplace/internal/backend"
	"xplace/internal/jobstore"
	"xplace/internal/kernel"
	"xplace/internal/placer"
)

// storePayload is the durable, replayable job form of these tests — the
// same role cmd/xserve's request JSON plays for the daemon.
type storePayload struct {
	N       int   `json:"n"`
	Seed    int64 `json:"seed"`
	MaxIter int   `json:"max_iter"`
}

func (p storePayload) bytes(t *testing.T) []byte {
	t.Helper()
	b, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func storeOpts(maxIter int) placer.Options {
	o := testOpts(maxIter)
	o.Backend = backend.Float64() // pin exact math under backend env overrides
	return o
}

func storeRehydrate(t *testing.T) func([]byte) (Spec, error) {
	return func(b []byte) (Spec, error) {
		var p storePayload
		if err := json.Unmarshal(b, &p); err != nil {
			return Spec{}, err
		}
		if p.N <= 0 {
			return Spec{}, errors.New("payload has no cell count")
		}
		return Spec{Design: testDesign(t, p.N, p.Seed), Options: storeOpts(p.MaxIter)}, nil
	}
}

// TestSchedulerRecovery is the tentpole acceptance at the scheduler
// level: a WAL holding a mid-trajectory running job (with a checkpoint),
// a queued job, and a finished job is replayed by New — the running job
// resumes from its checkpoint to a result bit-identical to an
// uninterrupted run, the queued job runs from scratch, the finished job
// reappears as history, and id assignment continues past the recovered
// ids.
func TestSchedulerRecovery(t *testing.T) {
	const workers = 2 // engine parallelism must match across runs for bit-identity
	pay1 := storePayload{N: 300, Seed: 7, MaxIter: 60}
	pay2 := storePayload{N: 200, Seed: 9, MaxIter: 40}

	// Uninterrupted reference for job 1's spec.
	ref := mustNew(t, Options{Engines: 1, EngineWorkers: workers})
	jr, err := ref.Submit(Spec{Design: testDesign(t, pay1.N, pay1.Seed), Options: storeOpts(pay1.MaxIter)})
	if err != nil {
		t.Fatal(err)
	}
	refRes, err := jr.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Simulate the crashed scheduler's store: job 1 was running with a
	// checkpoint at iteration 20, job 2 never left the queue, job 3 had
	// already finished.
	dir := t.TempDir()
	st, err := jobstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.AppendSubmit(1, "resume-me", pay1.bytes(t), "key-1"); err != nil {
		t.Fatal(err)
	}
	if err := st.AppendBegin(1); err != nil {
		t.Fatal(err)
	}
	eng := kernel.New(kernel.Options{Workers: workers})
	p, err := placer.New(testDesign(t, pay1.N, pay1.Seed), eng, storeOpts(pay1.MaxIter))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.RunIterations(20); err != nil {
		t.Fatal(err)
	}
	cpb, err := json.Marshal(p.Checkpoint())
	if err != nil {
		t.Fatal(err)
	}
	p.Close()
	eng.Close()
	if err := st.WriteCheckpoint(1, cpb); err != nil {
		t.Fatal(err)
	}
	if err := st.AppendSubmit(2, "queued", pay2.bytes(t), ""); err != nil {
		t.Fatal(err)
	}
	if err := st.AppendSubmit(3, "done", pay2.bytes(t), ""); err != nil {
		t.Fatal(err)
	}
	if err := st.AppendBegin(3); err != nil {
		t.Fatal(err)
	}
	if err := st.AppendFinish(3, "succeeded", "", 42, 123.5, 0.05, false); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart: the scheduler replays the WAL on construction.
	st2, err := jobstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	s := mustNew(t, Options{
		Engines: 1, EngineWorkers: workers, QueueCap: 1, // cap below backlog: recovery must still fit
		Store: st2, Rehydrate: storeRehydrate(t), CheckpointEvery: 10,
	})
	defer s.Shutdown(context.Background())

	jobs := s.Jobs()
	if len(jobs) != 3 || jobs[0].ID() != 3 || jobs[1].ID() != 2 || jobs[2].ID() != 1 {
		ids := make([]int64, len(jobs))
		for i, j := range jobs {
			ids[i] = j.ID()
		}
		t.Fatalf("recovered Jobs() ids = %v, want [3 2 1]", ids)
	}

	// Job 3: terminal history, visible without re-running.
	j3, _ := s.Job(3)
	st3 := j3.Status()
	if st3.State != Succeeded || !st3.Recovered || st3.Iterations != 42 || st3.HPWL != 123.5 {
		t.Fatalf("recovered terminal job: %+v", st3)
	}
	select {
	case <-j3.Done():
	default:
		t.Fatal("recovered terminal job not done")
	}

	// Job 1: resumes mid-trajectory and must finish bit-identical to the
	// uninterrupted reference.
	j1, _ := s.Job(1)
	if st1 := j1.Status(); !st1.Recovered || !st1.Resumed {
		t.Fatalf("job 1 flags: %+v, want recovered+resumed", st1)
	}
	res1, err := j1.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res1.Iterations != refRes.Iterations || res1.HPWL != refRes.HPWL || res1.Overflow != refRes.Overflow {
		t.Fatalf("resumed job: %d iters HPWL %v overflow %v; uninterrupted: %d / %v / %v",
			res1.Iterations, res1.HPWL, res1.Overflow,
			refRes.Iterations, refRes.HPWL, refRes.Overflow)
	}
	for c := range refRes.X {
		if res1.X[c] != refRes.X[c] || res1.Y[c] != refRes.Y[c] {
			t.Fatalf("cell %d: resumed (%v,%v) != uninterrupted (%v,%v)",
				c, res1.X[c], res1.Y[c], refRes.X[c], refRes.Y[c])
		}
	}
	if _, ok := st2.LoadCheckpoint(1); ok {
		t.Error("finished job's checkpoint not removed")
	}

	// Job 2: recovered from the queue, runs from scratch.
	j2, _ := s.Job(2)
	if res2, err := j2.Wait(context.Background()); err != nil || res2.Iterations == 0 {
		t.Fatalf("recovered queued job: res=%+v err=%v", res2, err)
	}
	if st2s := j2.Status(); !st2s.Recovered || st2s.Resumed {
		t.Fatalf("job 2 flags: %+v, want recovered, not resumed", st2s)
	}

	// Ids continue past the recovered range.
	j4, err := s.Submit(Spec{Design: testDesign(t, pay2.N, pay2.Seed), Options: storeOpts(pay2.MaxIter)})
	if err != nil {
		t.Fatal(err)
	}
	if j4.ID() != 4 {
		t.Fatalf("post-recovery id = %d, want 4", j4.ID())
	}
	if _, err := j4.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}

	reg := s.Registry()
	if got := reg.Counter("xserve_store_recovered_jobs", "non-terminal jobs re-enqueued on startup").Value(); got != 2 {
		t.Errorf("recovered counter = %d, want 2", got)
	}
	if got := reg.Counter("xserve_store_resumed_jobs", "recovered jobs resumed from a checkpoint").Value(); got != 1 {
		t.Errorf("resumed counter = %d, want 1", got)
	}
}

// TestResultCacheServesIdenticalSubmission: a second submission with the
// same content key finishes instantly from the durable cache — same
// numbers, zero new engine work.
func TestResultCacheServesIdenticalSubmission(t *testing.T) {
	dir := t.TempDir()
	st, err := jobstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	s := mustNew(t, Options{
		Engines: 1, EngineWorkers: 1, QueueCap: 4,
		Store: st, Rehydrate: storeRehydrate(t),
	})
	defer s.Shutdown(context.Background())

	pay := storePayload{N: 200, Seed: 3, MaxIter: 30}
	spec := Spec{
		Design:  testDesign(t, pay.N, pay.Seed),
		Options: storeOpts(pay.MaxIter),
		Payload: pay.bytes(t),
		Key:     "bench-key",
	}
	j1, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	res1, err := j1.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if j1.Status().Cached {
		t.Fatal("first keyed submission reported cached")
	}

	before := s.Counters()
	j2, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := j2.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !j2.Status().Cached {
		t.Fatal("identical submission not served from the cache")
	}
	if res2.HPWL != res1.HPWL || res2.Overflow != res1.Overflow || res2.Iterations != res1.Iterations {
		t.Fatalf("cached result differs: %+v vs %+v", res2, res1)
	}
	for c := range res1.X {
		if res2.X[c] != res1.X[c] || res2.Y[c] != res1.Y[c] {
			t.Fatalf("cached positions differ at cell %d", c)
		}
	}
	after := s.Counters()
	if after.Launches != before.Launches || after.Iterations != before.Iterations {
		t.Errorf("cache hit burned engine work: launches %d->%d iterations %d->%d",
			before.Launches, after.Launches, before.Iterations, after.Iterations)
	}
	if after.Succeeded != before.Succeeded+1 {
		t.Errorf("cached job not counted as succeeded")
	}
	reg := s.Registry()
	if got := reg.Counter("xserve_cache_hits_total", "submissions served from the result cache").Value(); got != 1 {
		t.Errorf("cache hits = %d, want 1", got)
	}

	// The cache is durable: a fresh scheduler over the same store serves
	// the hit with no Rehydrate round trip.
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	st.Close()
	st2, err := jobstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	s2 := mustNew(t, Options{
		Engines: 1, EngineWorkers: 1, QueueCap: 4,
		Store: st2, Rehydrate: storeRehydrate(t),
	})
	defer s2.Shutdown(context.Background())
	j3, err := s2.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	res3, err := j3.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !j3.Status().Cached || res3.HPWL != res1.HPWL {
		t.Fatalf("cache not durable across restart: cached=%v HPWL %v vs %v",
			j3.Status().Cached, res3.HPWL, res1.HPWL)
	}
}

// TestResultCachedBeforeSucceeded: a keyed run's result-cache entry is
// written before the job turns Succeeded, so a client that polls Status
// and resubmits the moment it reads succeeded always hits the cache.
func TestResultCachedBeforeSucceeded(t *testing.T) {
	st, err := jobstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	s := mustNew(t, Options{
		Engines: 1, EngineWorkers: 1, QueueCap: 4,
		Store: st, Rehydrate: storeRehydrate(t),
	})
	defer s.Shutdown(context.Background())

	for i := 0; i < 6; i++ {
		pay := storePayload{N: 120, Seed: int64(i + 1), MaxIter: 10}
		key := fmt.Sprintf("poll-key-%d", i)
		j, err := s.Submit(Spec{
			Design:  testDesign(t, pay.N, pay.Seed),
			Options: storeOpts(pay.MaxIter),
			Payload: pay.bytes(t),
			Key:     key,
		})
		if err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(30 * time.Second)
		for {
			state := j.Status().State
			if state == Succeeded {
				if _, ok := st.GetResult(key); !ok {
					t.Fatalf("job %d reads succeeded before its result is cached", i)
				}
				break
			}
			if state.Terminal() {
				t.Fatalf("job %d ended %v", i, state)
			}
			if time.Now().After(deadline) {
				t.Fatalf("job %d still %v after 30s", i, state)
			}
		}
	}
}

// TestRehydrateFailureMarksJobFailed: a recovered job whose payload can
// no longer be rebuilt fails visibly instead of blocking startup or
// silently vanishing — and the failure is durable, so the next restart
// does not retry it forever.
func TestRehydrateFailureMarksJobFailed(t *testing.T) {
	dir := t.TempDir()
	st, err := jobstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.AppendSubmit(1, "broken", []byte(`{}`), "k"); err != nil {
		t.Fatal(err)
	}
	st.Close()

	st2, err := jobstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	s := mustNew(t, Options{Engines: 1, EngineWorkers: 1, Store: st2, Rehydrate: storeRehydrate(t)})
	j, ok := s.Job(1)
	if !ok {
		t.Fatal("broken job missing from Jobs")
	}
	select {
	case <-j.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("broken job never finished")
	}
	if st := j.Status(); st.State != Failed || st.Err == "" {
		t.Fatalf("broken job: %+v, want Failed with an error", st)
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	// The failed outcome hit the WAL: a second recovery sees it terminal.
	recs, err := st2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || !recs[0].Terminal() {
		t.Fatalf("recovery after rehydrate failure: %+v, want one terminal record", recs)
	}
}
