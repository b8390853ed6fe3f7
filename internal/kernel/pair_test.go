package kernel

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"testing"
)

// TestLaunchPairMatchesTwoLaunches: on 1-, 2- and 3-worker engines and a
// closed one, a pair of one-chunk parts, of two several-chunk parts and of
// one of each runs every chunk of each part exactly once, with the chunk
// index and range LaunchChunks gives that part alone; writes the bits two
// sequential launches write; counts one launch; books each op one launch
// and a share of the pair's compute that sums to the engine's; and, warm,
// allocates nothing.
func TestLaunchPairMatchesTwoLaunches(t *testing.T) {
	const small, large = 100, 2*minParallel + 37
	type span struct{ chunk, lo, hi int }
	for _, workers := range []int{1, 2, 3} {
		for _, closed := range []bool{false, true} {
			for _, sizes := range [][2]int{{small, small}, {large, large}, {small, large}} {
				t.Run(fmt.Sprintf("w%d/closed=%v/%d+%d", workers, closed, sizes[0], sizes[1]), func(t *testing.T) {
					e := New(Options{Workers: workers})
					defer e.Close()
					if closed {
						e.Close()
					}
					in := [2][]float64{}
					for k := range in {
						in[k] = make([]float64, sizes[k])
						for i := range in[k] {
							in[k][i] = math.Sin(float64(7*i+k)) * 1e3
						}
					}
					// Each body writes a per-element output and a per-chunk
					// partial sum, the two kinds of output operators keep.
					var mu sync.Mutex
					var seen [2][]span
					var out, part [2][]float64
					body := func(k int) func(c, lo, hi int) {
						return func(c, lo, hi int) {
							mu.Lock()
							seen[k] = append(seen[k], span{c, lo, hi})
							mu.Unlock()
							var s float64
							for i := lo; i < hi; i++ {
								out[k][i] = in[k][i] * 1.5
								s += in[k][i]
							}
							part[k][c] = s
						}
					}
					reset := func() {
						for k := range out {
							out[k] = make([]float64, sizes[k])
							part[k] = make([]float64, e.Chunks(sizes[k]))
							seen[k] = nil
						}
					}
					byChunk := func(s []span) []span {
						sort.Slice(s, func(i, j int) bool { return s[i].chunk < s[j].chunk })
						return s
					}

					reset()
					var wantUsed [2]int
					wantUsed[0] = e.LaunchChunks("seq.a", sizes[0], body(0))
					wantUsed[1] = e.LaunchChunks("seq.b", sizes[1], body(1))
					wantSeen := [2][]span{byChunk(seen[0]), byChunk(seen[1])}
					wantOut, wantPart := out, part

					reset()
					before := e.Stats()
					a, b := Part{"pair.a", sizes[0], body(0)}, Part{"pair.b", sizes[1], body(1)}
					usedA, usedB := e.LaunchPair(a, b)
					after := e.Stats()

					if usedA != wantUsed[0] || usedB != wantUsed[1] {
						t.Errorf("pair used %d+%d chunks, alone %d+%d", usedA, usedB, wantUsed[0], wantUsed[1])
					}
					for k := range seen {
						if got := fmt.Sprint(byChunk(seen[k])); got != fmt.Sprint(wantSeen[k]) {
							t.Errorf("part %d ran chunks %s, alone %v", k, got, wantSeen[k])
						}
						for i := range out[k] {
							if math.Float64bits(out[k][i]) != math.Float64bits(wantOut[k][i]) {
								t.Fatalf("part %d element %d: %v, alone %v", k, i, out[k][i], wantOut[k][i])
							}
						}
						for c := range part[k] {
							if math.Float64bits(part[k][c]) != math.Float64bits(wantPart[k][c]) {
								t.Errorf("part %d chunk %d partial %v, alone %v", k, c, part[k][c], wantPart[k][c])
							}
						}
					}
					if got := after.Launches - before.Launches; got != 1 {
						t.Errorf("the pair counted %d launches, want 1", got)
					}
					for _, name := range []string{"pair.a", "pair.b"} {
						if got := after.PerOp[name].Launches; got != 1 {
							t.Errorf("%s: %d launches, want 1", name, got)
						}
					}
					var perOp int64
					for _, st := range after.PerOp {
						perOp += int64(st.Compute)
					}
					if perOp != int64(after.Compute) {
						t.Errorf("per-op compute sums to %d ns, engine compute %d ns", perOp, after.Compute)
					}

					// Warm: no bookkeeping entry or barrier left to create.
					// (The recording bodies above append; these do not.)
					a.Body = func(c, lo, hi int) { part[0][c] = float64(hi - lo) }
					b.Body = func(c, lo, hi int) { part[1][c] = float64(hi - lo) }
					for i := 0; i < 3; i++ {
						e.LaunchPair(a, b)
					}
					if allocs := testing.AllocsPerRun(50, func() { e.LaunchPair(a, b) }); allocs != 0 {
						t.Errorf("warm LaunchPair allocates %v times per run, want 0", allocs)
					}
				})
			}
		}
	}
}

// TestLaunchPanicContained: a chunk that panics — here chunk 1 of a pair's
// second part on a 2-worker pool, and a chunk of a pooled reduce — is
// recovered where it runs, every other chunk still runs, and the launching
// goroutine gets a *LaunchPanic naming the op and the chunk. The launch is
// accounted, the reduce's partials go back to the arena and the next
// launch runs on the same engine.
func TestLaunchPanicContained(t *testing.T) {
	e := New(Options{Workers: 2})
	defer e.Close()
	const n = 2 * minParallel
	if c := e.Chunks(n); c != 2 {
		t.Fatalf("Chunks(%d) = %d, want 2", n, c)
	}
	catch := func(launch func()) (lp *LaunchPanic) {
		defer func() {
			r := recover()
			if !errors.As(asError(r), &lp) {
				t.Fatalf("recovered %#v, want a *LaunchPanic", r)
			}
		}()
		launch()
		return nil
	}

	var mu sync.Mutex
	ran := map[string]int{}
	note := func(name string) func(c, lo, hi int) {
		return func(c, lo, hi int) {
			mu.Lock()
			ran[name]++
			mu.Unlock()
			if name == "poison" && hi == n { // the last chunk
				panic("the last chunk is poisoned")
			}
		}
	}
	lp := catch(func() {
		e.LaunchPair(Part{"good", n, note("good")}, Part{"poison", n, note("poison")})
	})
	if lp.Op != "poison" || lp.Chunk != 1 || lp.Value != "the last chunk is poisoned" || len(lp.Stack) == 0 {
		t.Errorf("LaunchPanic = {%q %d %v, %d-byte stack}, want poison chunk 1", lp.Op, lp.Chunk, lp.Value, len(lp.Stack))
	}
	if ran["good"] != 2 || ran["poison"] != 2 {
		t.Errorf("chunks run: %v, want both chunks of both parts", ran)
	}
	if st := e.Stats(); st.Launches != 1 || st.PerOp["poison"].Launches != 1 {
		t.Errorf("the poisoned pair was not accounted: %d launches, poison %d", st.Launches, st.PerOp["poison"].Launches)
	}

	// On a one-worker engine the pair runs on the caller: the same.
	serial := New(Options{Workers: 1})
	defer serial.Close()
	clear(ran)
	lp = catch(func() {
		serial.LaunchPair(Part{"good", n, note("good")}, Part{"poison", n, note("poison")})
	})
	if lp.Op != "poison" || lp.Chunk != 0 || ran["good"] != 1 || ran["poison"] != 1 {
		t.Errorf("serial pair: LaunchPanic names %s chunk %d after chunks %v, want poison chunk 0 after one chunk each",
			lp.Op, lp.Chunk, ran)
	}

	lp = catch(func() {
		e.ParallelReduce("poison.reduce", n, 0, func(lo, hi int) float64 {
			if lo > 0 {
				panic(fmt.Errorf("bad range [%d, %d)", lo, hi))
			}
			return 1
		}, func(a, b float64) float64 { return a + b })
	})
	if lp.Op != "poison.reduce" || lp.Chunk != 1 {
		t.Errorf("LaunchPanic names %s chunk %d, want poison.reduce chunk 1", lp.Op, lp.Chunk)
	}
	if in := e.ArenaStats().InUse; in != 0 {
		t.Errorf("arena InUse = %d after the panic, want 0", in)
	}

	got := e.ParallelReduce("after", n, 0, func(lo, hi int) float64 { return float64(hi - lo) },
		func(a, b float64) float64 { return a + b })
	if got != n {
		t.Errorf("launch after the panics reduced %v, want %d", got, n)
	}
	if in := e.ArenaStats().InUse; in != 0 {
		t.Errorf("arena InUse = %d at the end, want 0", in)
	}
}

// asError returns r as an error (nil if it is not one).
func asError(r any) error {
	err, _ := r.(error)
	return err
}
