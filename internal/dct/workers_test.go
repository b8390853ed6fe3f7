package dct

import (
	"fmt"
	"math"
	"testing"

	"xplace/internal/kernel"
)

// workerShapes are the grids the worker-count identity test runs on: square
// grids below and above the line-pass fan-out threshold, both tall and wide
// rectangles, and a 4-column grid whose column pass has fewer lines than the
// widest engine has workers.
var workerShapes = []struct{ nx, ny int }{
	{128, 128}, {256, 64}, {64, 256}, {512, 512}, {4, 4096},
}

// spectralOutputs runs every spectral transform of both plans on an engine
// of the given width and returns their outputs by name. Each transform
// writes into fresh, NaN-poisoned buffers, so a line no chunk wrote shows.
func spectralOutputs(nx, ny, workers int) map[string][]float64 {
	e := kernel.New(kernel.Options{Workers: workers})
	defer e.Close()
	coef := randGrid(nx, ny, 41)
	sx, sy := randGrid(nx, 1, 42), randGrid(1, ny, 43)
	n := nx * ny
	poisoned := func() []float64 {
		b := make([]float64, n)
		for i := range b {
			b[i] = math.NaN()
		}
		return b
	}
	poisoned32 := func() []float32 {
		b := make([]float32, n)
		for i := range b {
			b[i] = float32(math.NaN())
		}
		return b
	}
	widen := func(b []float32) []float64 {
		out := make([]float64, len(b))
		for i, v := range b {
			out[i] = float64(v)
		}
		return out
	}
	out := map[string][]float64{}

	p := NewPlan(nx, ny)
	defer p.Release(e)
	dct, cc := poisoned(), poisoned()
	p.DCT2(coef, dct, e)
	p.EvalCosCos(coef, cc, e)
	psi, ex, ey := poisoned(), poisoned(), poisoned()
	p.EvalPotentialField(coef, sx, sy, psi, ex, ey, e)
	ex0, ey0 := poisoned(), poisoned()
	p.EvalPotentialField(coef, sx, sy, nil, ex0, ey0, e)
	out["Plan.DCT2"], out["Plan.EvalCosCos"] = dct, cc
	out["Plan.psi"], out["Plan.ex"], out["Plan.ey"] = psi, ex, ey
	out["Plan.ex(psi=nil)"], out["Plan.ey(psi=nil)"] = ex0, ey0

	p32 := NewPlan32(nx, ny)
	defer p32.Release(e)
	c32 := to32(coef)
	dct32, cc32 := poisoned32(), poisoned32()
	p32.DCT2(c32, dct32, e)
	p32.EvalCosCos(c32, cc32, e)
	psi32, ex32, ey32 := poisoned32(), poisoned32(), poisoned32()
	p32.EvalPotentialField(c32, sx, sy, psi32, ex32, ey32, e)
	ex032, ey032 := poisoned32(), poisoned32()
	p32.EvalPotentialField(c32, sx, sy, nil, ex032, ey032, e)
	out["Plan32.DCT2"], out["Plan32.EvalCosCos"] = widen(dct32), widen(cc32)
	out["Plan32.psi"], out["Plan32.ex"], out["Plan32.ey"] = widen(psi32), widen(ex32), widen(ey32)
	out["Plan32.ex(psi=nil)"], out["Plan32.ey(psi=nil)"] = widen(ex032), widen(ey032)
	return out
}

// TestSpectralPassesBitIdenticalAcrossWorkers: every line of a spectral
// pass is transformed independently into chunk-private scratch, so however
// the line passes fan out, DCT2, EvalCosCos and EvalPotentialField (with
// and without psi) on both plans give the one-worker bits at 2, 3 and 8
// workers.
func TestSpectralPassesBitIdenticalAcrossWorkers(t *testing.T) {
	for _, sh := range workerShapes {
		t.Run(fmt.Sprintf("%dx%d", sh.nx, sh.ny), func(t *testing.T) {
			want := spectralOutputs(sh.nx, sh.ny, 1)
			for name, w := range want {
				for i, v := range w {
					if math.IsNaN(v) {
						t.Fatalf("1 worker: %s[%d] never written", name, i)
					}
				}
			}
			for _, workers := range []int{2, 3, 8} {
				got := spectralOutputs(sh.nx, sh.ny, workers)
				for name, w := range want {
					g := got[name]
					for i := range w {
						if math.Float64bits(g[i]) != math.Float64bits(w[i]) {
							t.Fatalf("%d workers: %s[%d] = %v, 1 worker gives %v", workers, name, i, g[i], w[i])
						}
					}
				}
			}
		})
	}
}
