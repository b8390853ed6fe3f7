package serve

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"xplace/internal/geom"
	"xplace/internal/kernel"
	"xplace/internal/netlist"
	"xplace/internal/placer"
)

// testDesign builds a seeded clustered design (the miniature
// standard-cell circuit of the placer tests).
func testDesign(tb testing.TB, n int, seed int64) *netlist.Design {
	tb.Helper()
	rng := rand.New(rand.NewSource(seed))
	side := math.Sqrt(float64(n) * 0.9 * 0.9 / 0.55)
	d := netlist.NewDesign("serve-test", geom.Rect{Hx: side, Hy: side})
	cols := int(math.Ceil(math.Sqrt(float64(n))))
	for i := 0; i < n; i++ {
		d.AddCell("c", 0.9, 0.9, rng.Float64()*side, rng.Float64()*side, netlist.Movable)
	}
	for i := 0; i < n; i++ {
		if i+1 < n && (i+1)%cols != 0 {
			d.AddNet("h")
			d.AddPin(i, 0, 0)
			d.AddPin(i+1, 0, 0)
		}
		if i+cols < n {
			d.AddNet("v")
			d.AddPin(i, 0, 0)
			d.AddPin(i+cols, 0, 0)
		}
	}
	if err := d.Finish(); err != nil {
		tb.Fatal(err)
	}
	return d
}

// mustNew builds a scheduler, failing the test on a recovery error.
func mustNew(tb testing.TB, opts Options) *Scheduler {
	tb.Helper()
	s, err := New(opts)
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

func testOpts(maxIter int) placer.Options {
	o := placer.Defaults()
	o.GridSize = 32
	o.TargetDensity = 0.9
	o.Sched.MaxIter = maxIter
	return o
}

// waitState polls until the job reaches (at least) the wanted state.
func waitState(tb testing.TB, j *Job, want State) {
	tb.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if st := j.Status().State; st >= want {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	tb.Fatalf("job %d stuck in %v waiting for %v", j.ID(), j.Status().State, want)
}

// waitGoroutines polls until the goroutine count falls back to the base
// (background GC helpers can keep it a touch above transiently).
func waitGoroutines(tb testing.TB, base int) {
	tb.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= base {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	tb.Errorf("goroutines leaked: %d now vs %d at start", runtime.NumGoroutine(), base)
}

// TestJobRuntimeAcceptance is the PR's acceptance scenario: 8 jobs
// submitted concurrently against queue capacity 4 and an engine pool of
// 4; two are cancelled mid-run and one times out (all three must return
// the engine arenas to baseline), the rest finish with HPWL bit-identical
// to a solo placement with the same seed and worker count.
func TestJobRuntimeAcceptance(t *testing.T) {
	baseG := runtime.NumGoroutine()

	const engineWorkers = 2
	s := mustNew(t, Options{
		Engines:        4,
		QueueCap:       4,
		EngineWorkers:  engineWorkers,
		LaunchOverhead: 0,
	})

	finishD := testDesign(t, 300, 7)
	longD := testDesign(t, 1200, 8)
	finishOpts := testOpts(400)
	longOpts := testOpts(100000)

	specs := make([]Spec, 8)
	for i := 0; i < 5; i++ {
		specs[i] = Spec{Design: finishD, Options: finishOpts, Label: "finish"}
	}
	specs[5] = Spec{Design: longD, Options: longOpts, Label: "cancel"}
	specs[6] = Spec{Design: longD, Options: longOpts, Label: "cancel"}
	specs[7] = Spec{Design: longD, Options: longOpts, Label: "timeout", Timeout: 60 * time.Millisecond}

	// Submit all 8 concurrently. With 4 workers + 4 queue slots every job
	// is eventually accepted, but a burst can transiently see a full
	// queue — the backpressure contract — so submitters retry.
	jobs := make([]*Job, 8)
	errc := make(chan error, 8)
	for i := range specs {
		go func(i int) {
			for {
				j, err := s.Submit(specs[i])
				if errors.Is(err, ErrQueueFull) {
					time.Sleep(time.Millisecond)
					continue
				}
				jobs[i] = j
				errc <- err
				return
			}
		}(i)
	}
	for range specs {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}

	// Cancel the two long jobs mid-run: wait until each is actually
	// running and has produced progress, then cancel.
	for _, i := range []int{5, 6} {
		waitState(t, jobs[i], Running)
		deadline := time.Now().Add(30 * time.Second)
		for len(jobs[i].Snapshots()) == 0 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if !s.Cancel(jobs[i].ID()) {
			t.Fatalf("cancel job %d failed", jobs[i].ID())
		}
	}

	// Everything reaches a terminal state.
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	for _, j := range jobs {
		if _, err := j.Wait(ctx); err != nil && ctx.Err() != nil {
			t.Fatalf("job %d did not finish: %v", j.ID(), err)
		}
	}

	// Terminal-state census.
	for i, j := range jobs {
		st := j.Status()
		switch {
		case i < 5 && st.State != Succeeded:
			t.Errorf("finish job %d: state %v (err %q), want succeeded", st.ID, st.State, st.Err)
		case (i == 5 || i == 6) && st.State != Canceled:
			t.Errorf("cancel job %d: state %v, want canceled", st.ID, st.State)
		case i == 7 && st.State != TimedOut:
			t.Errorf("timeout job %d: state %v, want timed-out", st.ID, st.State)
		}
	}

	// Cancelled / timed-out / finished jobs all released their
	// arena-backed scratch before Wait returned: every pooled engine is
	// back to baseline.
	for i, e := range s.engines {
		if inUse := e.Stats().Arena.InUse; inUse != 0 {
			t.Errorf("engine %d arena in-use = %d bytes after drain, want 0", i, inUse)
		}
	}

	// The survivors' HPWL matches a solo run bit-for-bit: same seed, same
	// worker count => same chunk boundaries => same FP summation order.
	solo := kernel.New(kernel.Options{Workers: engineWorkers, LaunchOverhead: 0})
	defer solo.Close()
	p, err := placer.New(finishD, solo, finishOpts)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	p.Close()
	for i := 0; i < 5; i++ {
		res, _ := jobs[i].Result()
		if res == nil {
			continue
		}
		if res.HPWL != ref.HPWL || res.Iterations != ref.Iterations {
			t.Errorf("job %d: HPWL %v in %d iters, solo run %v in %d — pooled engines must not perturb results",
				jobs[i].ID(), res.HPWL, res.Iterations, ref.HPWL, ref.Iterations)
		}
	}

	// Progress streaming: a finished job retains its trajectory and the
	// snapshots carry the stage classification.
	snaps := jobs[0].Snapshots()
	if len(snaps) == 0 {
		t.Fatal("finished job has no progress snapshots")
	}
	for k := 1; k < len(snaps); k++ {
		if snaps[k].Iter != snaps[k-1].Iter+1 {
			t.Fatalf("snapshot iters not consecutive: %d then %d", snaps[k-1].Iter, snaps[k].Iter)
		}
	}
	if st := snaps[len(snaps)-1].Stage; st != "early" && st != "intermediate" && st != "final" {
		t.Errorf("snapshot stage = %q", st)
	}

	c := s.Counters()
	if c.Submitted != 8 || c.Succeeded != 5 || c.Canceled != 2 || c.TimedOut != 1 {
		t.Errorf("counters = %+v, want 8 submitted / 5 succeeded / 2 canceled / 1 timed-out", c)
	}

	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	waitGoroutines(t, baseG)
}

func TestSubmitBackpressure(t *testing.T) {
	s := mustNew(t, Options{Engines: 1, QueueCap: 1, EngineWorkers: 1, LaunchOverhead: 0})
	d := testDesign(t, 800, 3)
	long := Spec{Design: d, Options: testOpts(100000)}

	running, err := s.Submit(long)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, running, Running)

	queued, err := s.Submit(long)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(long); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("third submit: err = %v, want ErrQueueFull", err)
	}
	if c := s.Counters(); c.Rejected != 1 || c.Queued != 1 {
		t.Errorf("counters = %+v, want 1 rejected / 1 queued", c)
	}

	// Cancelling the queued job is immediate — no worker involvement.
	if !s.Cancel(queued.ID()) {
		t.Fatal("cancel queued job failed")
	}
	if st := queued.Status(); st.State != Canceled || st.Started != nil {
		t.Errorf("queued job after cancel: state %v started %v, want canceled & never started",
			st.State, st.Started)
	}

	s.Cancel(running.ID())
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

func TestShutdownCancelsWhenContextExpires(t *testing.T) {
	baseG := runtime.NumGoroutine()
	s := mustNew(t, Options{Engines: 1, QueueCap: 4, EngineWorkers: 1, LaunchOverhead: 0})
	d := testDesign(t, 800, 4)
	// MinIter pins the loop: the job converges in about the 50 ms the drain
	// below is given, and must still be running when that expires.
	longOpts := testOpts(100000)
	longOpts.Sched.MinIter = 100000
	j, err := s.Submit(Spec{Design: d, Options: longOpts})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j, Running)

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("shutdown err = %v, want DeadlineExceeded (drain cut short)", err)
	}
	if st := j.Status().State; st != Canceled {
		t.Errorf("job state after forced drain = %v, want canceled", st)
	}
	// Forced drain still releases the job's arena-backed scratch.
	for i, e := range s.engines {
		if inUse := e.Stats().Arena.InUse; inUse != 0 {
			t.Errorf("engine %d arena in-use = %d after forced drain, want 0", i, inUse)
		}
	}
	waitGoroutines(t, baseG)
}

func TestSubmitAfterShutdownRejected(t *testing.T) {
	s := mustNew(t, Options{Engines: 1, QueueCap: 1, LaunchOverhead: 0})
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	d := testDesign(t, 50, 5)
	if _, err := s.Submit(Spec{Design: d, Options: testOpts(10)}); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit after shutdown: err = %v, want ErrDraining", err)
	}
	// Idempotent.
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestProgressRingKeepsLastHistory: past progressHistory snapshots the ring
// drops the oldest, so it retains exactly the last progressHistory, in
// order, and Last is the newest.
func TestProgressRingKeepsLastHistory(t *testing.T) {
	p := NewProgress()
	const total = progressHistory + 8
	for i := 1; i <= total; i++ {
		p.Add(placer.Snapshot{Iter: i})
	}
	snaps := p.Snapshots()
	if len(snaps) != progressHistory {
		t.Fatalf("retained %d snapshots, want %d", len(snaps), progressHistory)
	}
	for k, sn := range snaps {
		if want := total - progressHistory + 1 + k; sn.Iter != want {
			t.Fatalf("snapshot %d has iter %d, want %d", k, sn.Iter, want)
		}
	}
	if last, ok := p.Last(); !ok || last.Iter != total {
		t.Errorf("Last = %+v, %v, want iter %d", last, ok, total)
	}
}

func TestSubscribeStreamsProgressAndCloses(t *testing.T) {
	s := mustNew(t, Options{Engines: 1, QueueCap: 2, EngineWorkers: 1, LaunchOverhead: 0})
	defer s.Shutdown(context.Background())

	// A blocker holds the single engine until the subscription exists, so
	// the subscribed job cannot run (let alone finish) before Subscribe.
	blocker, err := s.Submit(Spec{Design: testDesign(t, 800, 3), Options: testOpts(100000)})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, blocker, Running)
	d := testDesign(t, 100, 6)
	j, err := s.Submit(Spec{Design: d, Options: testOpts(40)})
	if err != nil {
		t.Fatal(err)
	}
	ch, unsub := j.Subscribe(1024)
	defer unsub()
	s.Cancel(blocker.ID())
	var got []placer.Snapshot
	for sn := range ch { // closed when the job finishes
		got = append(got, sn)
	}
	// The buffer outsizes the run, so every iteration was streamed.
	if res, _ := j.Result(); res == nil || len(got) != res.Iterations {
		t.Fatalf("streamed %d snapshots, result %+v", len(got), res)
	}
	if st := j.Status().State; st != Succeeded {
		t.Fatalf("job state = %v", st)
	}
	// The run is shorter than the ring, so the ring retains every
	// iteration, in order (TestProgressRingKeepsLastHistory covers the wrap).
	snaps := j.Snapshots()
	if len(snaps) != len(got) {
		t.Fatalf("retained %d snapshots, want all %d", len(snaps), len(got))
	}
	last := got[len(got)-1]
	if snaps[len(snaps)-1] != last {
		t.Errorf("ring tail %+v != last streamed %+v", snaps[len(snaps)-1], last)
	}
	// Subscribing to a finished job yields a closed channel immediately.
	ch2, unsub2 := j.Subscribe(1)
	defer unsub2()
	if _, ok := <-ch2; ok {
		t.Error("subscription to finished job delivered a snapshot")
	}
}
