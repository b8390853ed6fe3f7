package wirelength

import (
	"math"
	"testing"
)

// TestGradientFiniteDifferenceProperty is the WA/LSE gradient-correctness
// property: over randomized small designs and a sweep of smoothing
// parameters, the analytic pin gradient (scattered to cells) must match a
// central finite difference of the forward evaluation in BOTH dimensions.
// gamma spans the schedule's working range — tight smoothing stresses the
// stable-exponential formulation (overflow), loose smoothing the
// cancellation of nearly-uniform weights.
func TestGradientFiniteDifferenceProperty(t *testing.T) {
	e := eng()
	defer e.Close()
	gammas := []float64{0.5, 3, 20, 150}
	for _, seed := range []int64{11, 12, 13} {
		d := randomDesign(t, 15, 25, seed)
		wa, lse := newTestOps(t, e, d, WA), newTestOps(t, e, d, LSE)
		np := d.NumPins()
		nc := d.NumCells()
		gx, gy := make([]float64, np), make([]float64, np)
		cgx, cgy := make([]float64, nc), make([]float64, nc)
		x := append([]float64(nil), d.CellX...)
		y := append([]float64(nil), d.CellY...)

		for _, m := range []struct {
			name    string
			grad    func(x, y []float64, g float64) float64
			forward func(x, y []float64, g float64) float64
		}{
			{"WA",
				func(x, y []float64, g float64) float64 { return wa.Grad(x, y, g, gx, gy) },
				func(x, y []float64, g float64) float64 { return wa.Forward(x, y, g) }},
			{"LSE",
				func(x, y []float64, g float64) float64 { return lse.Grad(x, y, g, gx, gy) },
				func(x, y []float64, g float64) float64 { return lse.Forward(x, y, g) }},
		} {
			for _, gamma := range gammas {
				wl := m.grad(x, y, gamma)
				if math.IsNaN(wl) || math.IsInf(wl, 0) {
					t.Fatalf("%s seed %d gamma %g: forward = %v", m.name, seed, gamma, wl)
				}
				wa.PinToCell(gx, gy, cgx, cgy)

				// Step scaled to gamma: small enough for the O(h^2) FD
				// error, large enough to survive double rounding at
				// coordinates ~1e3.
				h := 1e-4 * math.Max(1, gamma/10)
				for c := 0; c < nc; c++ {
					x[c] += h
					upX := m.forward(x, y, gamma)
					x[c] -= 2 * h
					dnX := m.forward(x, y, gamma)
					x[c] += h
					y[c] += h
					upY := m.forward(x, y, gamma)
					y[c] -= 2 * h
					dnY := m.forward(x, y, gamma)
					y[c] += h
					fdX := (upX - dnX) / (2 * h)
					fdY := (upY - dnY) / (2 * h)
					if math.Abs(fdX-cgx[c]) > 1e-3*(1+math.Abs(fdX)) {
						t.Errorf("%s seed %d gamma %g cell %d (x): analytic %v vs FD %v",
							m.name, seed, gamma, c, cgx[c], fdX)
					}
					if math.Abs(fdY-cgy[c]) > 1e-3*(1+math.Abs(fdY)) {
						t.Errorf("%s seed %d gamma %g cell %d (y): analytic %v vs FD %v",
							m.name, seed, gamma, c, cgy[c], fdY)
					}
				}
			}
		}
	}
}

// TestFusedGradMatchesUnfusedAcrossGamma pins the fused kernels (the
// OC fast path) to the unfused reference gradients for both models.
func TestFusedGradMatchesUnfusedAcrossGamma(t *testing.T) {
	e := eng()
	defer e.Close()
	d := randomDesign(t, 40, 70, 21)
	wa, lse := newTestOps(t, e, d, WA), newTestOps(t, e, d, LSE)
	np := d.NumPins()
	ga, gb := make([]float64, np), make([]float64, np)
	fa, fb := make([]float64, np), make([]float64, np)
	for _, gamma := range []float64{0.5, 3, 20, 150} {
		unf := wa.Grad(d.CellX, d.CellY, gamma, ga, gb)
		res := wa.Fused(d.CellX, d.CellY, gamma, fa, fb)
		if unf != res.WA {
			t.Errorf("gamma %g: fused WA %v != unfused %v", gamma, res.WA, unf)
		}
		for p := 0; p < np; p++ {
			if ga[p] != fa[p] || gb[p] != fb[p] {
				t.Fatalf("gamma %g pin %d: fused grad (%v,%v) != unfused (%v,%v)",
					gamma, p, fa[p], fb[p], ga[p], gb[p])
			}
		}
		lunf := lse.Grad(d.CellX, d.CellY, gamma, ga, gb)
		lres := lse.Fused(d.CellX, d.CellY, gamma, fa, fb)
		if lunf != lres.WA {
			t.Errorf("gamma %g: fused LSE %v != unfused %v", gamma, lres.WA, lunf)
		}
	}
}
