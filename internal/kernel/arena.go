package kernel

import (
	"fmt"
	"math/bits"
	"sync"
)

// Arena is a size-class pooling allocator for kernel scratch buffers — the
// "device memory allocator" of the substitution map (DESIGN.md §2). Hot
// operators check buffers out with Alloc/AllocComplex (and the float32
// variant the reduced-precision backend uses) and return them
// with the matching Free instead of calling make() inside the per-iteration
// loop, so steady-state GP iterations perform no Go heap allocations: after
// warm-up every checkout is served from a free list (a "hit").
//
// Buffers are bucketed by power-of-two capacity, with one free-list family
// per element type; byte accounting is element-size-aware (4 bytes per
// float32, 8 per float64, 16 per complex128), so InUse/Pooled/
// Peak stay exact under mixed-precision workloads. Alloc returns a zeroed
// slice of exactly the requested length; Free buckets by capacity, so
// foreign slices (not obtained from the arena) may be donated as long as
// their capacity is meaningful. An Arena is safe for concurrent use.
type Arena struct {
	mu  sync.Mutex
	f   [arenaClasses][][]float64
	c   [arenaClasses][][]complex128
	f32 [arenaClasses][][]float32
	st  ArenaStats
	// limit overrides the pooled-class bound when non-zero (tests lower it
	// to exercise the unpooled path without gigabyte allocations).
	limit int
}

// arenaClasses bounds the largest pooled class at 2^(arenaClasses-1)
// elements (512M float64 = 4 GiB); larger requests are never pooled.
const arenaClasses = 30

// poolLimit returns the effective pooled-class bound.
func (a *Arena) poolLimit() int {
	if a.limit != 0 {
		return a.limit
	}
	return arenaClasses
}

// ArenaStats is a snapshot of an Arena's accounting. Byte counts are in
// class-capacity units (the pooled power-of-two size times the element
// width: 4 bytes per float32, 8 per float64, 16 per complex128).
type ArenaStats struct {
	Hits   int64 // checkouts served from a free list
	Misses int64 // checkouts that had to allocate fresh memory
	Frees  int64 // buffers returned
	InUse  int64 // bytes currently checked out
	Pooled int64 // bytes parked in free lists
	Peak   int64 // high-water mark of InUse
}

// Allocs returns the total number of checkouts (hits + misses).
func (s ArenaStats) Allocs() int64 { return s.Hits + s.Misses }

// String renders a one-line summary.
func (s ArenaStats) String() string {
	return fmt.Sprintf("arena: allocs=%d hits=%d misses=%d frees=%d in-use=%dB pooled=%dB peak=%dB",
		s.Allocs(), s.Hits, s.Misses, s.Frees, s.InUse, s.Pooled, s.Peak)
}

// sizeClass returns the free-list index for a request of n elements:
// the smallest c with 1<<c >= n.
func sizeClass(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}

// capClass returns the free-list index a buffer of capacity c belongs to:
// the largest k with 1<<k <= c, so a parked buffer always satisfies any
// request routed to its class.
func capClass(c int) int {
	if c <= 1 {
		return 0
	}
	return bits.Len(uint(c)) - 1
}

// arenaAlloc checks a zeroed []T of length n out of the free-list family
// lists, accounting elemBytes per element. Requests above the largest
// pooled class are allocated at exact capacity (no power-of-two rounding,
// which would waste up to 2x memory on huge buffers and overflow 1<<cls
// near the int limit) and accounted at their actual byte size.
func arenaAlloc[T any](a *Arena, lists *[arenaClasses][][]T, elemBytes int64, n int) []T {
	if n < 0 {
		panic(fmt.Sprintf("kernel: arena alloc of %d elements", n))
	}
	cls := sizeClass(n)
	a.mu.Lock()
	if cls >= a.poolLimit() {
		a.st.Misses++
		a.st.InUse += elemBytes * int64(n)
		if a.st.InUse > a.st.Peak {
			a.st.Peak = a.st.InUse
		}
		a.mu.Unlock()
		return make([]T, n)
	}
	var buf []T
	if len(lists[cls]) > 0 {
		last := len(lists[cls]) - 1
		buf = lists[cls][last]
		lists[cls][last] = nil
		lists[cls] = lists[cls][:last]
		a.st.Hits++
		a.st.Pooled -= elemBytes << cls
	} else {
		a.st.Misses++
	}
	a.st.InUse += elemBytes << cls
	if a.st.InUse > a.st.Peak {
		a.st.Peak = a.st.InUse
	}
	a.mu.Unlock()
	if buf == nil {
		return make([]T, n, 1<<cls)
	}
	buf = buf[:n]
	var zero T
	for i := range buf {
		buf[i] = zero
	}
	return buf
}

// arenaFree returns a buffer to its free-list family. Freeing nil is a
// no-op. Unpooled-size buffers are accounted at actual capacity; InUse
// never goes negative even when a foreign (never-checked-out) slice is
// donated.
func arenaFree[T any](a *Arena, lists *[arenaClasses][][]T, elemBytes int64, buf []T) {
	if cap(buf) == 0 {
		return
	}
	cls := capClass(cap(buf))
	a.mu.Lock()
	a.st.Frees++
	if cls >= a.poolLimit() {
		a.st.InUse -= elemBytes * int64(cap(buf))
	} else {
		a.st.InUse -= elemBytes << cls
		lists[cls] = append(lists[cls], buf[:0])
		a.st.Pooled += elemBytes << cls
	}
	if a.st.InUse < 0 {
		a.st.InUse = 0
	}
	a.mu.Unlock()
}

// Alloc checks out a zeroed []float64 of length n.
func (a *Arena) Alloc(n int) []float64 { return arenaAlloc(a, &a.f, 8, n) }

// Free returns a float64 buffer to the arena.
func (a *Arena) Free(buf []float64) { arenaFree(a, &a.f, 8, buf) }

// AllocComplex checks out a zeroed []complex128 of length n.
func (a *Arena) AllocComplex(n int) []complex128 { return arenaAlloc(a, &a.c, 16, n) }

// FreeComplex returns a complex128 buffer to the arena.
func (a *Arena) FreeComplex(buf []complex128) { arenaFree(a, &a.c, 16, buf) }

// Alloc32 checks out a zeroed []float32 of length n (the reduced-precision
// backend's element type; accounted at 4 bytes per element).
func (a *Arena) Alloc32(n int) []float32 { return arenaAlloc(a, &a.f32, 4, n) }

// Free32 returns a float32 buffer to the arena.
func (a *Arena) Free32(buf []float32) { arenaFree(a, &a.f32, 4, buf) }

// Stats returns a snapshot of the arena accounting.
func (a *Arena) Stats() ArenaStats {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.st
}

// resetCounters clears the flow counters, keeping pooled buffers and the
// in-use/pooled byte tracking (checked-out buffers remain checked out).
func (a *Arena) resetCounters() {
	a.mu.Lock()
	a.st.Hits, a.st.Misses, a.st.Frees = 0, 0, 0
	a.st.Peak = a.st.InUse
	a.mu.Unlock()
}

// release drops every pooled buffer (used by Engine.Close).
func (a *Arena) release() {
	a.mu.Lock()
	for i := range a.f {
		a.f[i] = nil
	}
	for i := range a.c {
		a.c[i] = nil
	}
	for i := range a.f32 {
		a.f32[i] = nil
	}
	a.st.Pooled = 0
	a.mu.Unlock()
}
