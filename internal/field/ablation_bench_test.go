package field

// Ablation bench (DESIGN.md §5.3): the atomics-free per-chunk-accumulator
// density scatter against a CAS-loop atomic variant.

import (
	"math"
	"sync/atomic"
	"testing"
	"unsafe"

	"xplace/internal/geom"
	"xplace/internal/kernel"
	"xplace/internal/netlist"
)

// atomicAdd performs a CAS-loop float64 add — what a naive parallel
// scatter would do per touched bin.
func atomicAdd(addr *float64, delta float64) {
	for {
		old := math.Float64frombits(atomic.LoadUint64((*uint64)(unsafe.Pointer(addr))))
		if atomic.CompareAndSwapUint64((*uint64)(unsafe.Pointer(addr)),
			math.Float64bits(old), math.Float64bits(old+delta)) {
			return
		}
	}
}

// scatterAtomic is the atomic-scatter variant used only by this bench.
func scatterAtomic(e *kernel.Engine, s *System, d *netlist.Design, out []float64) {
	for i := range out {
		out[i] = 0
	}
	invBinArea := 1 / s.Grid.BinArea()
	s.grow(e, e.Chunks(d.NumCells()), false)
	e.LaunchChunks("density.atomic", d.NumCells(), func(chunk, lo, hi int) {
		for c := lo; c < hi; c++ {
			if d.CellKind[c] != netlist.Movable {
				continue
			}
			r, scale := s.expandedRect(d, c, d.CellX[c], d.CellY[c])
			r = r.Intersect(s.Grid.Region)
			if r.Empty() {
				continue
			}
			x0, x1, y0, y1 := s.Grid.BinRange(r)
			w := s.binSpanX(s.spanX[chunk], r, x0, x1)
			for iy := y0; iy < y1; iy++ {
				h := s.binSpanY(r, iy)
				for i, wi := range w {
					if ov := wi * h; h > 0 && ov > 0 {
						atomicAdd(&out[iy*s.Nx+x0+i], ov*scale*invBinArea)
					}
				}
			}
		}
	})
}

func benchDesign(b *testing.B, n int) (*kernel.Engine, *System, *netlist.Design) {
	b.Helper()
	e := kernel.New(kernel.Options{})
	grid := geom.NewGrid(geom.Rect{Hx: 128, Hy: 128}, 128, 128)
	s := NewSystem(grid, e)
	d := netlist.NewDesign("bench", grid.Region)
	for i := 0; i < n; i++ {
		d.AddCell("m", 0.9, 0.9, float64(i%127)+0.5, float64((i/127)%127)+0.5, netlist.Movable)
	}
	if err := d.Finish(); err != nil {
		b.Fatal(err)
	}
	return e, s, d
}

func TestAtomicScatterMatchesPrivate(t *testing.T) {
	e := kernel.New(kernel.Options{Workers: 4})
	grid := geom.NewGrid(geom.Rect{Hx: 16, Hy: 16}, 16, 16)
	s := NewSystem(grid, e)
	d := netlist.NewDesign("cmp", grid.Region)
	for i := 0; i < 300; i++ {
		d.AddCell("m", 0.8, 0.8, float64(i%15)+0.7, float64((i/15)%15)+0.9, netlist.Movable)
	}
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
	a := make([]float64, 256)
	p := make([]float64, 256)
	scatterAtomic(e, s, d, a)
	s.ScatterDensity(e, d, nil, nil, MaskMovable, p, "private")
	for i := range a {
		if math.Abs(a[i]-p[i]) > 1e-9 {
			t.Fatalf("bin %d: atomic %v vs private %v", i, a[i], p[i])
		}
	}
}

func BenchmarkAblationScatterPrivate(b *testing.B) {
	e, s, d := benchDesign(b, 30000)
	out := make([]float64, 128*128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.ScatterDensity(e, d, nil, nil, MaskMovable, out, "bench")
	}
}

func BenchmarkAblationScatterAtomic(b *testing.B) {
	e, s, d := benchDesign(b, 30000)
	out := make([]float64, 128*128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scatterAtomic(e, s, d, out)
	}
}
