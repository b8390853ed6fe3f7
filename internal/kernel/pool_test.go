package kernel

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
)

// TestLaunchFlavoursShareOneDecomposition pins the one dispatch path: for
// every worker count, problem size and open/closed engine, Launch,
// LaunchChunks and ParallelReduce see the same [lo, hi) chunks, LaunchChunks
// numbers them 0..used-1 in range order, and ParallelReduce folds their
// partials in chunk order. LaunchLines over n lines pools exactly when the
// engine is open with more than one worker, n >= 2 and n*lineLen reaches
// minLineWork — then with LaunchChunks' chunks and indices over n — and
// otherwise runs one serial chunk.
func TestLaunchFlavoursShareOneDecomposition(t *testing.T) {
	type span struct{ chunk, lo, hi int }
	byLo := func(s []span) []span {
		sort.Slice(s, func(i, j int) bool { return s[i].lo < s[j].lo })
		return s
	}
	for _, workers := range []int{1, 2, 3, 8} {
		for _, n := range []int{0, 1, 2, 5, 128, minParallel - 1, minParallel, 4*minParallel + 37} {
			for _, closed := range []bool{false, true} {
				t.Run(fmt.Sprintf("w%d/n%d/closed=%v", workers, n, closed), func(t *testing.T) {
					e := New(Options{Workers: workers})
					defer e.Close()
					if closed {
						e.Close()
					}
					var mu sync.Mutex
					var launched, chunked, reduced []span
					e.Launch("pin.launch", n, func(lo, hi int) {
						mu.Lock()
						launched = append(launched, span{-1, lo, hi})
						mu.Unlock()
					})
					used := e.LaunchChunks("pin.chunks", n, func(c, lo, hi int) {
						mu.Lock()
						chunked = append(chunked, span{c, lo, hi})
						mu.Unlock()
					})
					var folded []float64
					got := e.ParallelReduce("pin.reduce", n, -1, func(lo, hi int) float64 {
						mu.Lock()
						reduced = append(reduced, span{-1, lo, hi})
						mu.Unlock()
						return float64(lo)
					}, func(a, b float64) float64 {
						folded = append(folded, b)
						return a + b
					})
					launched, chunked, reduced = byLo(launched), byLo(chunked), byLo(reduced)

					// The decomposition itself: contiguous chunks covering
					// [0, n), several only when the launch is pooled.
					next := 0
					for _, s := range launched {
						if s.lo != next || s.hi <= s.lo {
							t.Fatalf("Launch chunks %v do not tile [0, %d)", launched, n)
						}
						next = s.hi
					}
					if next != n {
						t.Fatalf("Launch chunks %v do not cover [0, %d)", launched, n)
					}
					pooled := !closed && workers > 1 && n >= minParallel
					if !pooled && n > 0 && len(launched) != 1 {
						t.Errorf("serial launch ran %d chunks, want 1", len(launched))
					}
					if pooled && len(launched) < 2 {
						t.Errorf("pooled launch ran %d chunk, want several", len(launched))
					}

					if used != len(chunked) || len(chunked) != len(launched) || len(reduced) != len(launched) {
						t.Fatalf("chunk counts: Launch %d, LaunchChunks %d (used %d), ParallelReduce %d",
							len(launched), len(chunked), used, len(reduced))
					}
					want, wantFold := -1.0, []float64(nil)
					for i, s := range launched {
						if c := chunked[i]; c.chunk != i || c.lo != s.lo || c.hi != s.hi {
							t.Errorf("LaunchChunks chunk %d = %d:[%d,%d), Launch saw [%d,%d)", i, c.chunk, c.lo, c.hi, s.lo, s.hi)
						}
						if r := reduced[i]; r.lo != s.lo || r.hi != s.hi {
							t.Errorf("ParallelReduce chunk %d = [%d,%d), Launch saw [%d,%d)", i, r.lo, r.hi, s.lo, s.hi)
						}
						wantFold = append(wantFold, float64(s.lo))
						want += float64(s.lo)
					}
					if fmt.Sprint(folded) != fmt.Sprint(wantFold) || got != want {
						t.Errorf("ParallelReduce = %v folding %v, want %v folding the partials in chunk order %v", got, folded, want, wantFold)
					}

					// The line flavour, just below and at its work threshold.
					var pooledSpans []span
					for c := 0; c < workers; c++ {
						if lo, hi, ok := e.chunkBounds(c, n); ok {
							pooledSpans = append(pooledSpans, span{c, lo, hi})
						}
					}
					need := minLineWork
					if n > 0 {
						need = (minLineWork + n - 1) / n
					}
					for _, lineLen := range []int{1, need - 1, need} {
						var lined []span
						usedL := e.LaunchLines("pin.lines", n, lineLen, func(c, lo, hi int) {
							mu.Lock()
							lined = append(lined, span{c, lo, hi})
							mu.Unlock()
						})
						lined = byLo(lined)
						wantSpans := []span{{0, 0, n}}
						switch {
						case n == 0:
							wantSpans = nil
						case !closed && workers > 1 && n >= 2 && n*lineLen >= minLineWork:
							wantSpans = pooledSpans
							if len(wantSpans) < 2 {
								t.Fatalf("pooled line pass over %d lines has %d chunk", n, len(wantSpans))
							}
							if pooled && fmt.Sprint(wantSpans) != fmt.Sprint(chunked) {
								t.Fatalf("pooled chunks %v, LaunchChunks saw %v", wantSpans, chunked)
							}
						}
						if usedL != len(lined) || fmt.Sprint(lined) != fmt.Sprint(wantSpans) {
							t.Errorf("LaunchLines(%d lines x %d) ran %v (used %d), want %v", n, lineLen, lined, usedL, wantSpans)
						}
					}
				})
			}
		}
	}
}

// TestCloseSerialFallback: after Close, launches still execute (serially,
// on the calling goroutine) and are still accounted.
func TestCloseSerialFallback(t *testing.T) {
	e := New(Options{Workers: 4})
	n := 2 * minParallel
	e.Launch("warm", n, func(lo, hi int) {}) // spawn the pool
	e.Close()
	var calls int32
	touched := make([]bool, n)
	e.Launch("after_close", n, func(lo, hi int) {
		atomic.AddInt32(&calls, 1)
		for i := lo; i < hi; i++ {
			touched[i] = true
		}
	})
	if calls != 1 {
		t.Errorf("closed engine must run serially in one chunk, got %d calls", calls)
	}
	for i, ok := range touched {
		if !ok {
			t.Fatalf("index %d not covered after Close", i)
		}
	}
	if got := e.Stats().PerOp["after_close"].Launches; got != 1 {
		t.Errorf("post-Close launch not accounted: %d", got)
	}
	// Close is idempotent.
	e.Close()
}

// TestLaunchChunksSmallSingleChunk: below minParallel only chunk 0 runs.
func TestLaunchChunksSmallSingleChunk(t *testing.T) {
	e := New(Options{Workers: 8})
	defer e.Close()
	var chunks []int
	used := e.LaunchChunks("small", 100, func(chunk, lo, hi int) {
		chunks = append(chunks, chunk)
		if lo != 0 || hi != 100 {
			t.Errorf("chunk range [%d,%d), want [0,100)", lo, hi)
		}
	})
	if used != 1 || len(chunks) != 1 || chunks[0] != 0 {
		t.Errorf("used=%d chunks=%v, want single chunk 0", used, chunks)
	}
}

// TestLaunchChunksParallelCoverage: above minParallel every chunk index is
// distinct, in [0, used), and the union of ranges covers [0, n).
func TestLaunchChunksParallelCoverage(t *testing.T) {
	e := New(Options{Workers: 4})
	defer e.Close()
	n := 4*minParallel + 37
	seen := make([]int32, n)
	var mu sync.Mutex
	got := map[int]bool{}
	used := e.LaunchChunks("cover", n, func(chunk, lo, hi int) {
		mu.Lock()
		got[chunk] = true
		mu.Unlock()
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&seen[i], 1)
		}
	})
	if used < 1 || used > e.Workers() {
		t.Fatalf("used = %d, want in [1, %d]", used, e.Workers())
	}
	if len(got) != used {
		t.Errorf("distinct chunks %d != used %d", len(got), used)
	}
	for c := range got {
		if c < 0 || c >= used {
			t.Errorf("chunk index %d out of [0, %d)", c, used)
		}
	}
	for i, v := range seen {
		if v != 1 {
			t.Fatalf("index %d touched %d times", i, v)
		}
	}
}

// TestArenaReuse checks the checkout/return cycle: a freed buffer is served
// back zeroed as a hit, and the flow counters track it.
func TestArenaReuse(t *testing.T) {
	e := New(Options{Workers: 1})
	buf := e.Alloc(1000)
	if len(buf) != 1000 {
		t.Fatalf("len = %d", len(buf))
	}
	for i := range buf {
		buf[i] = 1
	}
	e.Free(buf)
	buf2 := e.Alloc(900) // same size class (1024)
	for i, v := range buf2 {
		if v != 0 {
			t.Fatalf("reused buffer not zeroed at %d: %v", i, v)
		}
	}
	st := e.ArenaStats()
	if st.Hits != 1 || st.Misses != 1 || st.Frees != 1 {
		t.Errorf("hits=%d misses=%d frees=%d, want 1/1/1", st.Hits, st.Misses, st.Frees)
	}
	if st.InUse != 1024*8 {
		t.Errorf("InUse = %d bytes, want %d", st.InUse, 1024*8)
	}
	if st.Peak != 1024*8 {
		t.Errorf("Peak = %d bytes, want %d", st.Peak, 1024*8)
	}
	e.Free(buf2)
	if st = e.ArenaStats(); st.InUse != 0 || st.Pooled != 1024*8 {
		t.Errorf("after free: InUse=%d Pooled=%d", st.InUse, st.Pooled)
	}

	// Complex checkouts use separate free lists and 16-byte accounting.
	c := e.AllocComplex(100)
	e.FreeComplex(c)
	c2 := e.AllocComplex(128)
	if st = e.ArenaStats(); st.Hits != 2 {
		t.Errorf("complex realloc should hit: %+v", st)
	}
	e.FreeComplex(c2)
}

// TestArenaAllocAttribution: checkouts inside a launch are attributed to
// that op; host-side checkouts go to HostOp.
func TestArenaAllocAttribution(t *testing.T) {
	e := New(Options{Workers: 1})
	e.Launch("op_with_scratch", 10, func(lo, hi int) {
		b := e.Alloc(16)
		e.Free(b)
	})
	host := e.Alloc(16)
	e.Free(host)
	st := e.Stats()
	if st.PerOp["op_with_scratch"].Allocs != 1 {
		t.Errorf("op allocs = %d, want 1", st.PerOp["op_with_scratch"].Allocs)
	}
	if st.PerOp[HostOp].Allocs != 1 {
		t.Errorf("host allocs = %d, want 1", st.PerOp[HostOp].Allocs)
	}
	if st.Arena.Allocs() != 2 {
		t.Errorf("arena total allocs = %d, want 2", st.Arena.Allocs())
	}
}

// TestResetClearsArenaCounters: Reset zeroes the flow counters but keeps
// pooled buffers warm (the next checkout is still a hit).
func TestResetClearsArenaCounters(t *testing.T) {
	e := New(Options{Workers: 1})
	e.Free(e.Alloc(64))
	e.Reset()
	st := e.ArenaStats()
	if st.Hits != 0 || st.Misses != 0 || st.Frees != 0 {
		t.Errorf("Reset left flow counters: %+v", st)
	}
	if st.Pooled == 0 {
		t.Error("Reset must keep pooled buffers warm")
	}
	e.Free(e.Alloc(64))
	if st = e.ArenaStats(); st.Hits != 1 || st.Misses != 0 {
		t.Errorf("warm pool should hit after Reset: %+v", st)
	}
}

// TestParallelReduceZeroAllocSteadyState: the partials buffer comes from
// the arena, so steady-state reductions do not touch the Go heap.
func TestParallelReduceZeroAllocSteadyState(t *testing.T) {
	e := New(Options{Workers: 4})
	defer e.Close()
	n := 4 * minParallel
	body := func(lo, hi int) float64 { return float64(hi - lo) }
	combine := func(a, b float64) float64 { return a + b }
	// Warm up pool and arena.
	for i := 0; i < 3; i++ {
		e.ParallelReduce("warm", n, 0, body, combine)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if got := e.ParallelReduce("reduce", n, 0, body, combine); got != float64(n) {
			t.Fatalf("reduce = %v, want %v", got, float64(n))
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state ParallelReduce allocs = %v, want 0", allocs)
	}
}

// spawnLaunch is the pre-pool dispatch strategy: one fresh goroutine per
// chunk per launch. Kept as the benchmark comparator for the persistent
// pool (BenchmarkLaunchPool vs BenchmarkLaunchSpawn).
func spawnLaunch(workers, n int, body func(start, end int)) {
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * chunk
		if lo >= n {
			break
		}
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			body(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

func benchBody(lo, hi int) {
	s := 0.0
	for i := lo; i < hi; i++ {
		s += float64(i)
	}
	_ = s
}

func BenchmarkLaunchPool(b *testing.B) {
	e := New(Options{Workers: 4})
	defer e.Close()
	n := 4 * minParallel
	e.Launch("warm", n, benchBody)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Launch("bench", n, benchBody)
	}
}

func BenchmarkLaunchSpawn(b *testing.B) {
	n := 4 * minParallel
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		spawnLaunch(4, n, benchBody)
	}
}

// reducePartialsBench models the ParallelReduce partial-slot write pattern
// at a given slot stride: each worker accumulates into its own slot of a
// shared buffer. With stride 1 the four slots share one cache line and the
// line ping-pongs between cores; with stride 8 (one line per slot — what
// ParallelReduce now uses) each worker owns its line.
func reducePartialsBench(b *testing.B, stride int) {
	const workers = 4
	slots := make([]float64, workers*stride)
	var wg sync.WaitGroup
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func(w int) {
				defer wg.Done()
				p := &slots[w*stride]
				for j := 0; j < 1<<13; j++ {
					*p += float64(j)
				}
			}(w)
		}
		wg.Wait()
	}
}

func BenchmarkReducePartialsAdjacent(b *testing.B) { reducePartialsBench(b, 1) }
func BenchmarkReducePartialsPadded(b *testing.B)   { reducePartialsBench(b, 8) }

func BenchmarkLaunchPoolSerialThreshold(b *testing.B) {
	// Below minParallel the launch never leaves the calling goroutine.
	e := New(Options{Workers: 4})
	defer e.Close()
	n := minParallel - 1
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.Launch("bench", n, benchBody)
	}
}
