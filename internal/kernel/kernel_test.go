package kernel

import (
	"sync/atomic"
	"testing"
	"time"

	"xplace/internal/obs"
)

func TestLaunchCoversRange(t *testing.T) {
	e := New(Options{Workers: 4})
	n := 10000
	seen := make([]int32, n)
	e.Launch("touch", n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&seen[i], 1)
		}
	})
	for i, v := range seen {
		if v != 1 {
			t.Fatalf("index %d touched %d times", i, v)
		}
	}
}

func TestLaunchSmallRunsSerial(t *testing.T) {
	e := New(Options{Workers: 8})
	var calls int
	e.Launch("small", 10, func(lo, hi int) {
		calls++
		if lo != 0 || hi != 10 {
			t.Errorf("expected single chunk, got [%d,%d)", lo, hi)
		}
	})
	if calls != 1 {
		t.Errorf("small launch should run once, got %d", calls)
	}
}

func TestLaunchZeroN(t *testing.T) {
	e := New(Options{Workers: 2})
	e.Launch("empty", 0, func(lo, hi int) {
		t.Error("body should not run for n=0")
	})
	if got := e.Stats().Launches; got != 1 {
		t.Errorf("empty launch still counts: got %d", got)
	}
}

func TestAccounting(t *testing.T) {
	e := New(Options{Workers: 2, LaunchOverhead: time.Millisecond})
	for i := 0; i < 5; i++ {
		e.Launch("a", 100, func(lo, hi int) {})
	}
	e.LaunchSerial("b", func() {})
	st := e.Stats()
	if st.Launches != 6 {
		t.Errorf("Launches = %d, want 6", st.Launches)
	}
	if st.PerOp["a"].Launches != 5 || st.PerOp["b"].Launches != 1 {
		t.Errorf("per-op accounting wrong: %+v", st.PerOp)
	}
	if st.Simulated < 6*time.Millisecond {
		t.Errorf("Simulated = %v, want >= 6ms of launch overhead", st.Simulated)
	}
	if st.Overhead != time.Millisecond {
		t.Errorf("Overhead = %v", st.Overhead)
	}
}

func TestSimulatedTimeFusionAdvantage(t *testing.T) {
	// Three separate tiny kernels must cost more simulated time than one
	// fused kernel doing the same work — the paper's operator-combination
	// argument, by construction.
	work := func(lo, hi int) {}
	sep := New(Options{Workers: 1, LaunchOverhead: 10 * time.Microsecond})
	sep.Launch("k1", 64, work)
	sep.Launch("k2", 64, work)
	sep.Launch("k3", 64, work)
	fused := New(Options{Workers: 1, LaunchOverhead: 10 * time.Microsecond})
	fused.Launch("k123", 64, work)
	if sep.Stats().Simulated <= fused.Stats().Simulated {
		t.Errorf("separate %v should exceed fused %v",
			sep.Stats().Simulated, fused.Stats().Simulated)
	}
}

func TestParallelReduce(t *testing.T) {
	e := New(Options{Workers: 4})
	n := 100000
	sum := e.ParallelReduce("sum", n, 0,
		func(lo, hi int) float64 {
			var s float64
			for i := lo; i < hi; i++ {
				s += float64(i)
			}
			return s
		},
		func(a, b float64) float64 { return a + b })
	want := float64(n-1) * float64(n) / 2
	if sum != want {
		t.Errorf("sum = %v, want %v", sum, want)
	}
}

func TestParallelReduceSmallAndEmpty(t *testing.T) {
	e := New(Options{Workers: 4})
	got := e.ParallelReduce("s", 5, 100,
		func(lo, hi int) float64 { return float64(hi - lo) },
		func(a, b float64) float64 { return a + b })
	if got != 105 {
		t.Errorf("small reduce = %v, want 105", got)
	}
	got = e.ParallelReduce("s", 0, 7,
		func(lo, hi int) float64 { t.Error("no body for n=0"); return 0 },
		func(a, b float64) float64 { return a + b })
	if got != 7 {
		t.Errorf("empty reduce = %v, want init 7", got)
	}
}

func TestSyncCountsImmediately(t *testing.T) {
	e := New(Options{Workers: 1})
	e.Sync()
	e.Sync()
	if st := e.Stats(); st.Syncs != 2 {
		t.Errorf("Syncs = %d, want 2", st.Syncs)
	}
}

func TestTrace(t *testing.T) {
	e := New(Options{Workers: 1})
	tr := obs.NewTracer()
	e.SetTracer(tr)
	e.Launch("wa", 1, func(lo, hi int) {})
	e.Launch("density", 1, func(lo, hi int) {})
	e.LaunchSerial("ovfl", func() {})
	e.SetTracer(nil)
	e.Launch("untraced", 1, func(lo, hi int) {})
	want := []string{"wa", "density", "ovfl"}
	evs := tr.Events()
	if len(evs) != len(want) {
		t.Fatalf("trace = %+v", evs)
	}
	for i := range want {
		if evs[i].Name != want[i] || evs[i].Cat != obs.CatKernel {
			t.Errorf("trace[%d] = %q (%s), want kernel %q", i, evs[i].Name, evs[i].Cat, want[i])
		}
	}
}

func TestReset(t *testing.T) {
	e := New(Options{Workers: 1})
	e.Launch("x", 1, func(lo, hi int) {})
	e.Reset()
	st := e.Stats()
	if st.Launches != 0 || len(st.PerOp) != 0 {
		t.Errorf("Reset did not clear: %+v", st)
	}
}

func TestDefaults(t *testing.T) {
	e := New(Options{LaunchOverhead: DefaultLaunchOverhead})
	if e.Workers() <= 0 {
		t.Error("default workers must be positive")
	}
	if got := e.Stats().Overhead; got != DefaultLaunchOverhead {
		t.Errorf("overhead = %v", got)
	}
	z := New(Options{LaunchOverhead: -1})
	if got := z.Stats().Overhead; got != DefaultLaunchOverhead {
		t.Errorf("negative overhead should map to default, got %v", got)
	}
	zero := New(Options{})
	if got := zero.Stats().Overhead; got != 0 {
		t.Errorf("zero overhead should disable the model, got %v", got)
	}
}

func TestStatsString(t *testing.T) {
	e := New(Options{Workers: 1})
	e.Launch("alpha", 1, func(lo, hi int) {})
	s := e.Stats().String()
	if s == "" {
		t.Error("empty stats string")
	}
}
