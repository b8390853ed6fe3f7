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

// spectralOutputs runs every spectral transform of fresh plans of both
// kinds on an engine of the given width and returns their outputs by name.
func spectralOutputs(nx, ny, workers int) map[string][]float64 {
	e := kernel.New(kernel.Options{Workers: workers})
	defer e.Close()
	p, p32 := NewPlan(nx, ny), NewPlan32(nx, ny)
	defer p.Release(e)
	defer p32.Release(e)
	return planOutputs(e, p, p32)
}

// planOutputs runs every spectral transform of p and p32 on e and returns
// their outputs by name. Each transform writes into fresh, NaN-poisoned
// buffers, so a line no chunk wrote shows.
func planOutputs(e *kernel.Engine, p *Plan, p32 *Plan32) map[string][]float64 {
	nx, ny := p.Nx, p.Ny
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
// workers. One Plan and one Plan32 driven in turn by engines of 1, 3 and 8
// workers grow their per-chunk scratch to each engine's chunk count and
// give the bits of fresh plans on that engine; Release on the last engine
// returns every byte it lent (its InUse back at its baseline).
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
			same := func(what string, got, want map[string][]float64) {
				t.Helper()
				for name, w := range want {
					g := got[name]
					for i := range w {
						if math.Float64bits(g[i]) != math.Float64bits(w[i]) {
							t.Fatalf("%s: %s[%d] = %v, want %v", what, name, i, g[i], w[i])
						}
					}
				}
			}
			for _, workers := range []int{2, 3, 8} {
				same(fmt.Sprintf("%d workers against 1", workers), spectralOutputs(sh.nx, sh.ny, workers), want)
			}

			p, p32 := NewPlan(sh.nx, sh.ny), NewPlan32(sh.nx, sh.ny)
			for _, workers := range []int{1, 3, 8} {
				e := kernel.New(kernel.Options{Workers: workers})
				defer e.Close()
				base := e.ArenaStats().InUse
				fp, fp32 := NewPlan(sh.nx, sh.ny), NewPlan32(sh.nx, sh.ny)
				fresh := planOutputs(e, fp, fp32)
				fp.Release(e)
				fp32.Release(e)
				same(fmt.Sprintf("plans reused on %d workers against fresh plans", workers), planOutputs(e, p, p32), fresh)
				if workers == 8 {
					p.Release(e)
					p32.Release(e)
					if got := e.ArenaStats().InUse; got != base {
						t.Errorf("InUse after Release on the last engine = %d, want %d", got, base)
					}
				}
			}
		})
	}
}
