package field

import (
	"math"
	"testing"

	"xplace/internal/backend"
	"xplace/internal/geom"
	"xplace/internal/kernel"
	"xplace/internal/netlist"
)

func newSys32(nx, ny int, e *kernel.Engine) *System {
	return NewSystemOn(geom.NewGrid(geom.Rect{Hx: float64(nx), Hy: float64(ny)}, nx, ny), e, backend.Float32())
}

// clusterDesign builds a dense cluster plus spread probes — enough density
// structure that the solve produces non-trivial fields everywhere.
func clusterDesign(t *testing.T, s *System) *netlist.Design {
	t.Helper()
	d := netlist.NewDesign("f32", s.Grid.Region)
	for i := 0; i < 24; i++ {
		d.AddCell("c", 2, 2, 8+float64(i%3), 16+float64(i%5), netlist.Movable)
	}
	d.AddCell("p1", 1, 1, 24, 16, netlist.Movable)
	d.AddCell("p2", 1.5, 1, 16, 24, netlist.Movable)
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
	return d
}

// TestFloat32SystemMatchesReference is the tolerance-banded field golden:
// scatter, solve (Ex, Ey and the energy) and gather on the float32 backend
// track the reference system within float32 rounding of the field
// magnitude.
func TestFloat32SystemMatchesReference(t *testing.T) {
	e := eng()
	defer e.Close()
	nx, ny := 32, 32
	ref := newSys(nx, ny, e)
	fast := newSys32(nx, ny, e)
	if fast.Backend() == nil || fast.Backend().Name() != "float32" {
		t.Fatal("system did not adopt the float32 backend")
	}
	d := clusterDesign(t, fast)

	ref.ScatterDensity(e, d, nil, nil, MaskMovable, ref.Total, "s64")
	fast.ScatterDensity(e, d, nil, nil, MaskMovable, fast.Total, "s32")
	e64 := ref.SolvePoisson(e)
	e32 := fast.SolvePoisson(e)

	var maxMag float64
	for i := range ref.Ex {
		maxMag = math.Max(maxMag, math.Max(math.Abs(ref.Ex[i]), math.Abs(ref.Ey[i])))
	}
	const tol = 1e-5
	for i := range ref.Ex {
		if d := math.Abs(fast.Total[i] - ref.Total[i]); d > tol*(1+ref.Total[i]) {
			t.Fatalf("Total[%d] = %v, ref %v", i, fast.Total[i], ref.Total[i])
		}
		if d := math.Abs(fast.Ex[i] - ref.Ex[i]); d > tol*maxMag {
			t.Fatalf("Ex[%d] = %v, ref %v", i, fast.Ex[i], ref.Ex[i])
		}
		if d := math.Abs(fast.Ey[i] - ref.Ey[i]); d > tol*maxMag {
			t.Fatalf("Ey[%d] = %v, ref %v", i, fast.Ey[i], ref.Ey[i])
		}
	}
	if e64 <= 0 {
		t.Fatalf("reference energy %v: a clustered density must store energy", e64)
	}
	if rel := math.Abs(e32-e64) / e64; rel > tol {
		t.Errorf("energy %v vs reference %v (rel %g)", e32, e64, rel)
	}

	// Gather reads the converted float64 maps, so gradients band too.
	gx64 := make([]float64, d.NumCells())
	gy64 := make([]float64, d.NumCells())
	gx32 := make([]float64, d.NumCells())
	gy32 := make([]float64, d.NumCells())
	ref.GatherField(e, d, nil, nil, MaskMovable, gx64, gy64)
	fast.GatherField(e, d, nil, nil, MaskMovable, gx32, gy32)
	var maxG float64
	for i := range gx64 {
		maxG = math.Max(maxG, math.Max(math.Abs(gx64[i]), math.Abs(gy64[i])))
	}
	for i := range gx64 {
		if math.Abs(gx32[i]-gx64[i]) > tol*maxG || math.Abs(gy32[i]-gy64[i]) > tol*maxG {
			t.Fatalf("grad[%d] = (%v,%v), ref (%v,%v)", i, gx32[i], gy32[i], gx64[i], gy64[i])
		}
	}
}

// TestFloat32SystemRelease: the reduced-precision solve checks its element
// buffers out of the engine arena and Release returns every byte, twice.
func TestFloat32SystemRelease(t *testing.T) {
	e := eng()
	defer e.Close()
	s := newSys32(16, 16, e)
	base := e.ArenaStats().InUse
	for i := range s.Total {
		s.Total[i] = float64(i%7) * 0.3
	}
	s.SolvePoisson(e)
	if got := e.ArenaStats().InUse; got <= base {
		t.Fatalf("solve should hold arena bytes, InUse = %d (base %d)", got, base)
	}
	s.Release(e)
	if got := e.ArenaStats().InUse; got != base {
		t.Fatalf("InUse after Release = %d, want %d", got, base)
	}
	s.Release(e) // idempotent
	if got := e.ArenaStats().InUse; got != base {
		t.Fatalf("InUse after second Release = %d, want %d", got, base)
	}
	// The system stays usable after Release.
	s.SolvePoisson(e)
	s.Release(e)
}
