package dct

// Ablation benches (DESIGN.md §5.2): the FFT-based DCT against the naive
// O(n^2) transform it replaces.

import (
	"math"
	"testing"
)

// naiveDCT2 is the direct O(n^2)-per-row 2-D DCT-II.
func naiveDCT2(f, out []float64, nx, ny int) {
	tmp := make([]float64, nx*ny)
	// Rows.
	for y := 0; y < ny; y++ {
		for u := 0; u < nx; u++ {
			var s float64
			for x := 0; x < nx; x++ {
				s += f[y*nx+x] * math.Cos(math.Pi*float64(u)*(2*float64(x)+1)/(2*float64(nx)))
			}
			tmp[y*nx+u] = s
		}
	}
	// Columns.
	for x := 0; x < nx; x++ {
		for v := 0; v < ny; v++ {
			var s float64
			for y := 0; y < ny; y++ {
				s += tmp[y*nx+x] * math.Cos(math.Pi*float64(v)*(2*float64(y)+1)/(2*float64(ny)))
			}
			out[v*nx+x] = s
		}
	}
}

func TestNaiveDCTMatchesFFTDCT(t *testing.T) {
	nx, ny := 16, 16
	f := randGrid(nx, ny, 21)
	want := make([]float64, nx*ny)
	NewPlan(nx, ny).DCT2(f, want, serial)
	got := make([]float64, nx*ny)
	naiveDCT2(f, got, nx, ny)
	if d := maxAbsDiff(got, want); d > 1e-8 {
		t.Errorf("naive vs FFT DCT differ by %g", d)
	}
}

func BenchmarkAblationDCTNaive128(b *testing.B) {
	nx, ny := 128, 128
	f := randGrid(nx, ny, 5)
	out := make([]float64, nx*ny)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		naiveDCT2(f, out, nx, ny)
	}
}

func BenchmarkAblationDCTFFT128(b *testing.B) {
	nx, ny := 128, 128
	f := randGrid(nx, ny, 5)
	out := make([]float64, nx*ny)
	p := NewPlan(nx, ny)
	p.DCT2(f, out, serial) // warm the scratch
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.DCT2(f, out, serial)
	}
}
