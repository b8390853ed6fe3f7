package kernel

import (
	"sync"
	"sync/atomic"
	"testing"
)

// TestCloseLaunchRace hammers every launch flavour against Close. The
// pre-fix engine captured the pool pointer under poolMu but enqueued tasks
// after releasing it, so Close could close the task channel mid-send
// (panic: send on closed channel). Run with -race; the in-flight launch
// count must make Close drain enqueuing launches first.
func TestCloseLaunchRace(t *testing.T) {
	const hammers = 4
	n := 4 * minParallel
	for iter := 0; iter < 30; iter++ {
		e := New(Options{Workers: 4})
		var stop atomic.Bool
		var wg sync.WaitGroup
		started := make(chan struct{}, hammers)
		body := func(lo, hi int) {}
		chunkBody := func(chunk, lo, hi int) {}
		reduceBody := func(lo, hi int) float64 { return 1 }
		for g := 0; g < hammers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				first := true
				for !stop.Load() {
					switch g % 4 {
					case 0:
						e.Launch("race.launch", n, body)
					case 1:
						e.LaunchSerial("race.serial", func() {})
					case 2:
						e.LaunchChunks("race.chunks", n, chunkBody)
					case 3:
						e.ParallelReduce("race.reduce", n, 0, reduceBody, sumF)
					}
					if first {
						first = false
						started <- struct{}{}
					}
				}
			}(g)
		}
		for g := 0; g < hammers; g++ {
			<-started
		}
		e.Close() // must not panic and must not deadlock
		stop.Store(true)
		wg.Wait()
		// Post-Close launches fall back to serial and stay accounted.
		e.Launch("race.after", n, body)
		if e.Stats().PerOp["race.after"].Launches != 1 {
			t.Fatal("post-Close launch not accounted")
		}
	}
}

func sumF(a, b float64) float64 { return a + b }

// TestCloseIdempotentConcurrent: concurrent Closes must not double-close
// the task channel.
func TestCloseIdempotentConcurrent(t *testing.T) {
	e := New(Options{Workers: 4})
	e.Launch("warm", 4*minParallel, func(lo, hi int) {})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e.Close()
		}()
	}
	wg.Wait()
}

// TestArenaUnpooledExactCapacity: requests above the pooled-class bound get
// exact capacity (no power-of-two rounding) and are accounted at actual
// byte size on both checkout and return.
func TestArenaUnpooledExactCapacity(t *testing.T) {
	var a Arena
	a.limit = 4 // pool only up to 1<<3 = 8 elements
	buf := a.Alloc(100)
	if len(buf) != 100 || cap(buf) != 100 {
		t.Fatalf("unpooled alloc len/cap = %d/%d, want 100/100 (exact)", len(buf), cap(buf))
	}
	if st := a.Stats(); st.InUse != 800 || st.Peak != 800 || st.Misses != 1 {
		t.Errorf("unpooled accounting = %+v, want InUse=800 Peak=800 Misses=1", st)
	}
	a.Free(buf)
	if st := a.Stats(); st.InUse != 0 || st.Pooled != 0 {
		t.Errorf("after free: InUse=%d Pooled=%d, want 0/0 (never pooled)", st.InUse, st.Pooled)
	}
	// Unpooled frees don't park buffers: the next checkout misses again.
	buf2 := a.Alloc(100)
	if st := a.Stats(); st.Misses != 2 || st.Hits != 0 {
		t.Errorf("unpooled realloc: misses=%d hits=%d, want 2/0", st.Misses, st.Hits)
	}
	a.Free(buf2)

	c := a.AllocComplex(50)
	if len(c) != 50 || cap(c) != 50 {
		t.Fatalf("unpooled complex len/cap = %d/%d, want 50/50", len(c), cap(c))
	}
	if st := a.Stats(); st.InUse != 800 {
		t.Errorf("complex unpooled InUse = %d, want 800", st.InUse)
	}
	a.FreeComplex(c)
	if st := a.Stats(); st.InUse != 0 {
		t.Errorf("complex unpooled free left InUse = %d", st.InUse)
	}
}

// TestArenaForeignFreeCannotGoNegative: donating a slice that was never
// checked out must not drive InUse negative.
func TestArenaForeignFreeCannotGoNegative(t *testing.T) {
	var a Arena
	a.Free(make([]float64, 1024))
	if st := a.Stats(); st.InUse != 0 {
		t.Errorf("foreign free drove InUse to %d, want clamp at 0", st.InUse)
	}
	a.FreeComplex(make([]complex128, 64))
	if st := a.Stats(); st.InUse != 0 {
		t.Errorf("foreign complex free drove InUse to %d", st.InUse)
	}
	// The donation is still pooled and serves the next checkout.
	if a.Alloc(1000) == nil {
		t.Fatal("alloc failed")
	}
	if st := a.Stats(); st.Hits != 1 {
		t.Errorf("donated buffer not reused: %+v", st)
	}

	// Unpooled foreign free likewise clamps.
	var b Arena
	b.limit = 4
	b.Free(make([]float64, 100))
	if st := b.Stats(); st.InUse != 0 {
		t.Errorf("unpooled foreign free drove InUse to %d", st.InUse)
	}
}

// TestParallelReducePaddedPartials: the reduce still folds every chunk
// correctly with cache-line-strided partial slots.
func TestParallelReducePaddedPartials(t *testing.T) {
	e := New(Options{Workers: 7})
	defer e.Close()
	n := 7*minParallel + 13
	got := e.ParallelReduce("reduce.pad", n, 0,
		func(lo, hi int) float64 {
			var s float64
			for i := lo; i < hi; i++ {
				s += float64(i)
			}
			return s
		}, sumF)
	want := float64(n-1) * float64(n) / 2
	if got != want {
		t.Errorf("padded reduce = %v, want %v", got, want)
	}
}
