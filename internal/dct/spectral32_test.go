package dct

import (
	"fmt"
	"math"
	"testing"
)

// to32 converts a float64 grid to float32.
func to32(f []float64) []float32 {
	out := make([]float32, len(f))
	for i, v := range f {
		out[i] = float32(v)
	}
	return out
}

// maxRelDiff32 returns the largest |got-want| over the float32 result,
// normalized by the max magnitude of want (transform outputs scale with N,
// so an absolute band would be meaningless across grid sizes).
func maxRelDiff32(got []float32, want []float64) float64 {
	var maxW, maxD float64
	for _, w := range want {
		if a := math.Abs(w); a > maxW {
			maxW = a
		}
	}
	for i := range got {
		if d := math.Abs(float64(got[i]) - want[i]); d > maxD {
			maxD = d
		}
	}
	if maxW == 0 {
		return maxD
	}
	return maxD / maxW
}

// f32Tol is the tolerance band of the float32 goldens: float32 has ~1e-7
// relative rounding, and FFT error grows ~sqrt(log N), so 1e-5 of the
// output magnitude leaves comfortable margin while still catching any
// structural mistake (a wrong twiddle or permutation is orders louder).
const f32Tol = 1e-5

// TestPlan32MatchesFloat64 is the tolerance-banded golden for the float32
// spectral engine: DCT2, EvalCosCos and the batched field evaluation all
// track the float64 v2 plan within f32Tol of the output magnitude.
func TestPlan32MatchesFloat64(t *testing.T) {
	for _, dims := range [][2]int{{4, 4}, {8, 32}, {32, 8}, {64, 64}} {
		nx, ny := dims[0], dims[1]
		f := randGrid(nx, ny, 23)
		p64 := NewPlan(nx, ny)
		p32 := NewPlan32(nx, ny)

		want := make([]float64, nx*ny)
		got := make([]float32, nx*ny)
		p64.DCT2(f, want, serial)
		p32.DCT2(to32(f), got, serial)
		if d := maxRelDiff32(got, want); d > f32Tol {
			t.Errorf("%dx%d DCT2 rel diff %g", nx, ny, d)
		}

		p64.EvalCosCos(f, want, serial)
		p32.EvalCosCos(to32(f), got, serial)
		if d := maxRelDiff32(got, want); d > f32Tol {
			t.Errorf("%dx%d EvalCosCos rel diff %g", nx, ny, d)
		}

		sx := randGrid(nx, 1, 37)
		sy := randGrid(ny, 1, 41)
		psi64 := make([]float64, nx*ny)
		ex64 := make([]float64, nx*ny)
		ey64 := make([]float64, nx*ny)
		p64.EvalPotentialField(f, sx, sy, psi64, ex64, ey64, serial)
		psi32 := make([]float32, nx*ny)
		ex32 := make([]float32, nx*ny)
		ey32 := make([]float32, nx*ny)
		p32.EvalPotentialField(to32(f), sx, sy, psi32, ex32, ey32, serial)
		if d := maxRelDiff32(psi32, psi64); d > f32Tol {
			t.Errorf("%dx%d field psi rel diff %g", nx, ny, d)
		}
		if d := maxRelDiff32(ex32, ex64); d > f32Tol {
			t.Errorf("%dx%d field ex rel diff %g", nx, ny, d)
		}
		if d := maxRelDiff32(ey32, ey64); d > f32Tol {
			t.Errorf("%dx%d field ey rel diff %g", nx, ny, d)
		}
	}
}

// TestPlan32RoundTrip: forward DCT2 then normalized EvalCosCos
// reconstructs the input within the float32 band.
func TestPlan32RoundTrip(t *testing.T) {
	nx, ny := 32, 16
	f := randGrid(nx, ny, 29)
	p := NewPlan32(nx, ny)
	coef := make([]float32, nx*ny)
	p.DCT2(to32(f), coef, serial)
	for v := 0; v < ny; v++ {
		wv := 2 / float32(ny)
		if v == 0 {
			wv = 1 / float32(ny)
		}
		for u := 0; u < nx; u++ {
			wu := 2 / float32(nx)
			if u == 0 {
				wu = 1 / float32(nx)
			}
			coef[v*nx+u] *= wu * wv
		}
	}
	got := make([]float32, nx*ny)
	p.EvalCosCos(coef, got, serial)
	if d := maxRelDiff32(got, f); d > f32Tol {
		t.Errorf("roundtrip rel diff %g", d)
	}
}

// TestPlan32AllocFree: steady-state float32 transforms perform zero heap
// allocations, same discipline as the float64 plan.
func TestPlan32AllocFree(t *testing.T) {
	nx, ny := 32, 64
	p := NewPlan32(nx, ny)
	f := to32(randGrid(nx, ny, 43))
	coef := make([]float32, nx*ny)
	sx := randGrid(nx, 1, 47)
	sy := randGrid(ny, 1, 53)
	psi := make([]float32, nx*ny)
	ex := make([]float32, nx*ny)
	ey := make([]float32, nx*ny)
	p.DCT2(f, coef, serial)
	p.EvalPotentialField(coef, sx, sy, psi, ex, ey, serial)
	allocs := testing.AllocsPerRun(20, func() {
		p.DCT2(f, coef, serial)
		p.EvalPotentialField(coef, sx, sy, psi, ex, ey, serial)
	})
	if allocs != 0 {
		t.Errorf("steady-state float32 transform allocs = %v, want 0", allocs)
	}
}

// BenchmarkSpectralBackends: the per-backend transform cost on the
// headline grids — the raw material of the BENCH_6 Poisson micro section.
func BenchmarkSpectralBackends(b *testing.B) {
	for _, n := range []int{256, 512} {
		b.Run(fmt.Sprintf("float64/%d", n), func(b *testing.B) {
			benchRoundTrip(b, NewPlan(n, n), n)
		})
		b.Run(fmt.Sprintf("float32/%d", n), func(b *testing.B) {
			p := NewPlan32(n, n)
			f := to32(randGrid(n, n, 3))
			coef := make([]float32, n*n)
			out := make([]float32, n*n)
			p.DCT2(f, coef, serial)
			p.EvalCosCos(coef, out, serial)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.DCT2(f, coef, serial)
				p.EvalCosCos(coef, out, serial)
			}
		})
	}
}
