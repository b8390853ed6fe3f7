package kernel

import "testing"

// TestArenaMixedElementSizes interleaves float64, float32 and complex128
// checkouts and checks the byte accounting stays exact per
// element width, returns to baseline after release, and keeps the free-list
// families separate (a float32 request must never be served from a parked
// float64 buffer of the same class).
func TestArenaMixedElementSizes(t *testing.T) {
	var a Arena

	f := a.Alloc(1000)       // class 10: 8<<10 = 8192 B
	g := a.Alloc32(1000)     // class 10: 4<<10 = 4096 B
	c := a.AllocComplex(300) // class 9: 16<<9 = 8192 B

	const want = 8192 + 4096 + 8192
	st := a.Stats()
	if st.InUse != want {
		t.Fatalf("InUse = %d, want %d", st.InUse, want)
	}
	if st.Peak != want {
		t.Fatalf("Peak = %d, want %d", st.Peak, want)
	}
	if st.Misses != 3 || st.Hits != 0 {
		t.Fatalf("misses=%d hits=%d, want 3 misses on a cold arena", st.Misses, st.Hits)
	}

	// Release in a different order than checkout; accounting must return to
	// baseline with every byte parked in the right family.
	a.Free32(g)
	a.FreeComplex(c)
	a.Free(f)
	st = a.Stats()
	if st.InUse != 0 {
		t.Fatalf("InUse after release = %d, want 0", st.InUse)
	}
	if st.Pooled != want {
		t.Fatalf("Pooled after release = %d, want %d", st.Pooled, want)
	}
	if st.Frees != 3 {
		t.Fatalf("Frees = %d, want 3", st.Frees)
	}

	// Same size class, different element type: class 9 holds only a parked
	// complex128 buffer, so a float32 request routed there must
	// be a fresh miss — families never serve each other.
	g2 := a.Alloc32(512)
	st = a.Stats()
	if st.Hits != 0 {
		t.Fatalf("float32 checkout hit a foreign free list (hits=%d)", st.Hits)
	}
	// Matching type and class is a hit.
	f2 := a.Alloc(1024)
	if st = a.Stats(); st.Hits != 1 {
		t.Fatalf("float64 re-checkout hits = %d, want 1", st.Hits)
	}
	a.Free32(g2)
	a.Free(f2)
	if st = a.Stats(); st.InUse != 0 {
		t.Fatalf("InUse after second cycle = %d, want 0", st.InUse)
	}
}

// TestArenaMixedUnpooledAccounting: above the pooled bound, reduced-width
// buffers are accounted at their actual byte size (4 B per float32, 16 per
// complex128), not the float64 width.
func TestArenaMixedUnpooledAccounting(t *testing.T) {
	var a Arena
	a.limit = 4 // pool only up to 1<<3 = 8 elements

	g := a.Alloc32(100)
	z := a.AllocComplex(50)
	st := a.Stats()
	if want := int64(100*4 + 50*16); st.InUse != want {
		t.Fatalf("unpooled InUse = %d, want %d", st.InUse, want)
	}
	a.Free32(g)
	a.FreeComplex(z)
	if st = a.Stats(); st.InUse != 0 || st.Pooled != 0 {
		t.Fatalf("after release InUse=%d Pooled=%d, want 0/0", st.InUse, st.Pooled)
	}
}

// TestEngineMixedAllocWrappers: the Engine-level float32/complex128 wrappers
// reach the same arena and attribute checkouts like the float64 ones.
func TestEngineMixedAllocWrappers(t *testing.T) {
	e := New(Options{Workers: 2})
	defer e.Close()

	g := e.Alloc32(512)
	z := e.AllocComplex(512)
	st := e.ArenaStats()
	if want := int64(4*512 + 16*512); st.InUse != want {
		t.Fatalf("InUse = %d, want %d", st.InUse, want)
	}
	e.Free32(g)
	e.FreeComplex(z)
	if st = e.ArenaStats(); st.InUse != 0 {
		t.Fatalf("InUse after free = %d, want 0", st.InUse)
	}
	if got := e.Stats().PerOp[HostOp].Allocs; got != 2 {
		t.Fatalf("host-attributed allocs = %d, want 2", got)
	}
}
