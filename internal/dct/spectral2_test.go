package dct

import (
	"fmt"
	"testing"
)

// engine names the subtests of the golden tests below after the spectral
// engine they pin: the Makhoul + tiled-transpose engine of DESIGN.md §5.6.
const engine = "v2"

// TestSpectralVersionsMatchDirect: the forward and cos-cos transforms
// against the O(N^2)-per-output references, on non-square grids in both
// aspect orientations (the sine series are checked through
// EvalPotentialField below).
func TestSpectralVersionsMatchDirect(t *testing.T) {
	t.Run(engine, func(t *testing.T) {
		for _, dims := range [][2]int{{4, 4}, {8, 32}, {32, 8}, {2, 16}, {16, 16}} {
			nx, ny := dims[0], dims[1]
			p := NewPlan(nx, ny)
			f := randGrid(nx, ny, 23)
			got := make([]float64, nx*ny)
			p.DCT2(f, got, Serial)
			if d := maxAbsDiff(got, directDCT2(f, nx, ny)); d > 1e-9 {
				t.Errorf("%dx%d DCT2 max diff %g", nx, ny, d)
			}
			p.EvalCosCos(f, got, Serial)
			if d := maxAbsDiff(got, directEval(f, nx, ny, false, false)); d > 1e-9 {
				t.Errorf("%dx%d EvalCosCos max diff %g", nx, ny, d)
			}
		}
	})
}

// TestSpectralRoundTripBothVersions: DCT2 followed by the normalized
// EvalCosCos reconstructs the input, in both aspect orientations.
func TestSpectralRoundTripBothVersions(t *testing.T) {
	t.Run(engine, func(t *testing.T) {
		for _, dims := range [][2]int{{8, 8}, {32, 16}, {16, 64}} {
			nx, ny := dims[0], dims[1]
			f := randGrid(nx, ny, 29)
			p := NewPlan(nx, ny)
			coef := make([]float64, nx*ny)
			p.DCT2(f, coef, Serial)
			for v := 0; v < ny; v++ {
				wv := 2 / float64(ny)
				if v == 0 {
					wv = 1 / float64(ny)
				}
				for u := 0; u < nx; u++ {
					wu := 2 / float64(nx)
					if u == 0 {
						wu = 1 / float64(nx)
					}
					coef[v*nx+u] *= wu * wv
				}
			}
			got := make([]float64, nx*ny)
			p.EvalCosCos(coef, got, Serial)
			if d := maxAbsDiff(got, f); d > 1e-9 {
				t.Errorf("%dx%d roundtrip max diff %g", nx, ny, d)
			}
		}
	})
}

// fieldReference computes the three EvalPotentialField outputs through the
// direct O(N^2) evaluators.
func fieldReference(coef, sx, sy []float64, nx, ny int) (psi, ex, ey []float64) {
	psi = directEval(coef, nx, ny, false, false)
	cx := make([]float64, nx*ny)
	cy := make([]float64, nx*ny)
	for v := 0; v < ny; v++ {
		for u := 0; u < nx; u++ {
			cx[v*nx+u] = coef[v*nx+u] * sx[u]
			cy[v*nx+u] = coef[v*nx+u] * sy[v]
		}
	}
	ex = directEval(cx, nx, ny, true, false)
	ey = directEval(cy, nx, ny, false, true)
	return
}

// TestEvalPotentialFieldMatchesDirect: the batched field evaluation — the
// only consumer of evalMakhoul's sine series — against the direct
// references.
func TestEvalPotentialFieldMatchesDirect(t *testing.T) {
	nx, ny := 8, 32
	coef := randGrid(nx, ny, 31)
	sx := randGrid(nx, 1, 37)
	sy := randGrid(ny, 1, 41)
	wantPsi, wantEx, wantEy := fieldReference(coef, sx, sy, nx, ny)
	t.Run(engine, func(t *testing.T) {
		p := NewPlan(nx, ny)
		psi := make([]float64, nx*ny)
		ex := make([]float64, nx*ny)
		ey := make([]float64, nx*ny)
		p.EvalPotentialField(coef, sx, sy, psi, ex, ey, Serial)
		if d := maxAbsDiff(psi, wantPsi); d > 1e-9 {
			t.Errorf("psi max diff %g", d)
		}
		if d := maxAbsDiff(ex, wantEx); d > 1e-9 {
			t.Errorf("ex max diff %g", d)
		}
		if d := maxAbsDiff(ey, wantEy); d > 1e-9 {
			t.Errorf("ey max diff %g", d)
		}
	})
}

// TestEvalPotentialFieldAllocFree: after the first call warms the plan
// scratch (including the second intermediate and field tiles), the batched
// evaluation performs zero heap allocations.
func TestEvalPotentialFieldAllocFree(t *testing.T) {
	nx, ny := 32, 64
	coef := randGrid(nx, ny, 43)
	sx := randGrid(nx, 1, 47)
	sy := randGrid(ny, 1, 53)
	t.Run(engine, func(t *testing.T) {
		p := NewPlan(nx, ny)
		psi := make([]float64, nx*ny)
		ex := make([]float64, nx*ny)
		ey := make([]float64, nx*ny)
		p.EvalPotentialField(coef, sx, sy, psi, ex, ey, Serial)
		allocs := testing.AllocsPerRun(20, func() {
			p.EvalPotentialField(coef, sx, sy, psi, ex, ey, Serial)
		})
		if allocs != 0 {
			t.Errorf("steady-state EvalPotentialField allocs = %v, want 0", allocs)
		}
	})
}

// BenchmarkDCT2DRoundTrip: the acceptance benchmark — forward DCT2 plus
// EvalCosCos. Sub-benchmarks cover the grid sweep;
// 512 is the headline size.
func BenchmarkDCT2DRoundTrip(b *testing.B) {
	for _, n := range []int{256, 512, 1024} {
		b.Run(fmt.Sprintf("%d", n), func(b *testing.B) {
			benchRoundTrip(b, NewPlan(n, n), n)
		})
	}
}

func benchRoundTrip(b *testing.B, p *Plan, n int) {
	f := randGrid(n, n, 3)
	coef := make([]float64, n*n)
	out := make([]float64, n*n)
	p.DCT2(f, coef, Serial) // warm the scratch
	p.EvalCosCos(coef, out, Serial)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.DCT2(f, coef, Serial)
		p.EvalCosCos(coef, out, Serial)
	}
}
