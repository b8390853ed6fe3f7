package dct

import (
	"fmt"
	"math"
	"testing"
)

// engine names the subtests of the golden tests below after the spectral
// engine they pin: the Makhoul engine of DESIGN.md §5.6, its columns
// transformed in place by the column-block kernels.
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
			p.DCT2(f, got, serial)
			if d := maxAbsDiff(got, directDCT2(f, nx, ny)); d > 1e-9 {
				t.Errorf("%dx%d DCT2 max diff %g", nx, ny, d)
			}
			p.EvalCosCos(f, got, serial)
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
			p.DCT2(f, coef, serial)
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
			p.EvalCosCos(coef, got, serial)
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

// fieldShapes are the grids the field-evaluation oracle runs on: the sizes
// below 4 (no packed FFT: dctIIIMakhoul's explicit N = 2 path) in both
// orientations, the smallest packed size, non-square grids both ways, and
// one grid with several column blocks.
var fieldShapes = [][2]int{{2, 16}, {16, 2}, {4, 4}, {8, 32}, {32, 8}, {64, 64}}

// TestEvalPotentialFieldMatchesDirect: the batched field evaluation — the
// only consumer of dctIIIMakhoul's sine series — against the direct
// references, on the float64 plan (absolute 1e-9) and the float32 plan
// (f32Tol of the output magnitude).
func TestEvalPotentialFieldMatchesDirect(t *testing.T) {
	type fieldCase struct {
		nx, ny                  int
		coef, sx, sy            []float64
		wantPsi, wantEx, wantEy []float64
	}
	cases := make([]fieldCase, len(fieldShapes))
	for i, dims := range fieldShapes {
		c := fieldCase{nx: dims[0], ny: dims[1]}
		c.coef = randGrid(c.nx, c.ny, 31)
		c.sx = randGrid(c.nx, 1, 37)
		c.sy = randGrid(c.ny, 1, 41)
		c.wantPsi, c.wantEx, c.wantEy = fieldReference(c.coef, c.sx, c.sy, c.nx, c.ny)
		cases[i] = c
	}
	t.Run(engine, func(t *testing.T) {
		for _, c := range cases {
			t.Run(fmt.Sprintf("%dx%d", c.nx, c.ny), func(t *testing.T) {
				n := c.nx * c.ny
				psi, ex, ey := make([]float64, n), make([]float64, n), make([]float64, n)
				NewPlan(c.nx, c.ny).EvalPotentialField(c.coef, c.sx, c.sy, psi, ex, ey, serial)
				for _, o := range []struct {
					name      string
					got, want []float64
				}{{"psi", psi, c.wantPsi}, {"ex", ex, c.wantEx}, {"ey", ey, c.wantEy}} {
					if d := maxAbsDiff(o.got, o.want); d > 1e-9 {
						t.Errorf("%s max diff %g", o.name, d)
					}
				}
			})
		}
	})
	t.Run("float32", func(t *testing.T) {
		for _, c := range cases {
			t.Run(fmt.Sprintf("%dx%d", c.nx, c.ny), func(t *testing.T) {
				n := c.nx * c.ny
				psi, ex, ey := make([]float32, n), make([]float32, n), make([]float32, n)
				NewPlan32(c.nx, c.ny).EvalPotentialField(to32(c.coef), c.sx, c.sy, psi, ex, ey, serial)
				for _, o := range []struct {
					name string
					got  []float32
					want []float64
				}{{"psi", psi, c.wantPsi}, {"ex", ex, c.wantEx}, {"ey", ey, c.wantEy}} {
					if d := maxRelDiff32(o.got, o.want); d > f32Tol {
						t.Errorf("%s rel diff %g", o.name, d)
					}
				}
			})
		}
	})
}

// TestEvalPotentialFieldSkipsPsi: a nil psi skips the potential and leaves
// ex and ey bit-identical to the call that evaluates it, on both plans.
func TestEvalPotentialFieldSkipsPsi(t *testing.T) {
	for _, dims := range fieldShapes {
		nx, ny := dims[0], dims[1]
		coef := randGrid(nx, ny, 59)
		sx := randGrid(nx, 1, 61)
		sy := randGrid(ny, 1, 67)
		t.Run(fmt.Sprintf("%dx%d", nx, ny), func(t *testing.T) {
			p := NewPlan(nx, ny)
			psi := make([]float64, nx*ny)
			ex, ey := make([]float64, nx*ny), make([]float64, nx*ny)
			ex2, ey2 := make([]float64, nx*ny), make([]float64, nx*ny)
			p.EvalPotentialField(coef, sx, sy, psi, ex, ey, serial)
			p.EvalPotentialField(coef, sx, sy, nil, ex2, ey2, serial)
			for i := range ex {
				if math.Float64bits(ex[i]) != math.Float64bits(ex2[i]) || math.Float64bits(ey[i]) != math.Float64bits(ey2[i]) {
					t.Fatalf("bin %d: psi=nil gives (%v, %v), with psi (%v, %v)", i, ex2[i], ey2[i], ex[i], ey[i])
				}
			}

			p32 := NewPlan32(nx, ny)
			c32 := to32(coef)
			psi32 := make([]float32, nx*ny)
			ex32, ey32 := make([]float32, nx*ny), make([]float32, nx*ny)
			ex32b, ey32b := make([]float32, nx*ny), make([]float32, nx*ny)
			p32.EvalPotentialField(c32, sx, sy, psi32, ex32, ey32, serial)
			p32.EvalPotentialField(c32, sx, sy, nil, ex32b, ey32b, serial)
			for i := range ex32 {
				if math.Float32bits(ex32[i]) != math.Float32bits(ex32b[i]) || math.Float32bits(ey32[i]) != math.Float32bits(ey32b[i]) {
					t.Fatalf("float32 bin %d: psi=nil gives (%v, %v), with psi (%v, %v)", i, ex32b[i], ey32b[i], ex32[i], ey32[i])
				}
			}
		})
	}
}

// TestEvalPotentialFieldAllocFree: after the first call warms the plan
// scratch (including the second intermediate), the batched
// evaluation performs zero heap allocations, with and without psi.
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
		p.EvalPotentialField(coef, sx, sy, psi, ex, ey, serial)
		allocs := testing.AllocsPerRun(20, func() {
			p.EvalPotentialField(coef, sx, sy, psi, ex, ey, serial)
			p.EvalPotentialField(coef, sx, sy, nil, ex, ey, serial)
		})
		if allocs != 0 {
			t.Errorf("steady-state EvalPotentialField allocs = %v, want 0", allocs)
		}
	})
}

// BenchmarkEvalPotentialField: the batched field evaluation alone, at the
// gp-small grid (64) and the gp-spectral grid (512), with the potential
// (what the benchmark's dct.field_eval_us probe times) and without it (what
// the Poisson solve runs).
func BenchmarkEvalPotentialField(b *testing.B) {
	for _, n := range []int{64, 512} {
		coef := randGrid(n, n, 71)
		sx := randGrid(n, 1, 73)
		sy := randGrid(n, 1, 79)
		for _, withPsi := range []bool{true, false} {
			name := fmt.Sprintf("%d/nopsi", n)
			if withPsi {
				name = fmt.Sprintf("%d/psi", n)
			}
			b.Run(name, func(b *testing.B) {
				p := NewPlan(n, n)
				var psi []float64
				if withPsi {
					psi = make([]float64, n*n)
				}
				ex, ey := make([]float64, n*n), make([]float64, n*n)
				p.EvalPotentialField(coef, sx, sy, psi, ex, ey, serial)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					p.EvalPotentialField(coef, sx, sy, psi, ex, ey, serial)
				}
			})
		}
	}
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
	p.DCT2(f, coef, serial) // warm the scratch
	p.EvalCosCos(coef, out, serial)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.DCT2(f, coef, serial)
		p.EvalCosCos(coef, out, serial)
	}
}
