package wirelength

import (
	"math"
	"testing"
)

func TestLSEOverestimatesAndConvergesToHPWL(t *testing.T) {
	d := randomDesign(t, 40, 60, 12)
	e := eng()
	lse := newTestOps(t, e, d, LSE)
	hp := d.HPWL(nil, nil)
	prevGap := math.Inf(1)
	for _, gamma := range []float64{100, 10, 1, 0.1} {
		wl := lse.Forward(d.CellX, d.CellY, gamma)
		if wl < hp-1e-6 {
			t.Errorf("gamma=%v: LSE %v below HPWL %v (LSE must overestimate)", gamma, wl, hp)
		}
		gap := wl - hp
		if gap > prevGap+1e-9 {
			t.Errorf("gamma=%v: gap %v grew from %v", gamma, gap, prevGap)
		}
		prevGap = gap
	}
	if prevGap > 0.01*hp {
		t.Errorf("gamma=0.1 gap %v still above 1%% of HPWL %v", prevGap, hp)
	}
}

func TestLSEBracketsHPWLWithWA(t *testing.T) {
	// WA <= HPWL <= LSE for any gamma.
	d := randomDesign(t, 30, 50, 13)
	e := eng()
	wa, lse := newTestOps(t, e, d, WA), newTestOps(t, e, d, LSE)
	hp := d.HPWL(nil, nil)
	for _, gamma := range []float64{20, 2} {
		lo := wa.Forward(d.CellX, d.CellY, gamma)
		hi := lse.Forward(d.CellX, d.CellY, gamma)
		if !(lo <= hp+1e-9 && hp <= hi+1e-9) {
			t.Errorf("gamma=%v: WA %v <= HPWL %v <= LSE %v violated", gamma, lo, hp, hi)
		}
	}
}

func TestLSEGradientFiniteDifference(t *testing.T) {
	d := randomDesign(t, 12, 20, 14)
	e := eng()
	lse := newTestOps(t, e, d, LSE)
	gamma := 3.0
	np := d.NumPins()
	gx, gy := make([]float64, np), make([]float64, np)
	lse.Fused(d.CellX, d.CellY, gamma, gx, gy)
	cgx := make([]float64, d.NumCells())
	cgy := make([]float64, d.NumCells())
	lse.PinToCell(gx, gy, cgx, cgy)

	h := 1e-5
	x := append([]float64(nil), d.CellX...)
	for c := 0; c < d.NumCells(); c++ {
		x[c] += h
		up := lse.Forward(x, d.CellY, gamma)
		x[c] -= 2 * h
		dn := lse.Forward(x, d.CellY, gamma)
		x[c] += h
		fd := (up - dn) / (2 * h)
		if math.Abs(fd-cgx[c]) > 1e-4*(1+math.Abs(fd)) {
			t.Errorf("cell %d: analytic %v vs FD %v", c, cgx[c], fd)
		}
	}
}

func TestFusedLSEAgreesWithUnfused(t *testing.T) {
	d := randomDesign(t, 50, 70, 15)
	e := eng()
	lse := newTestOps(t, e, d, LSE)
	np := d.NumPins()
	g1x, g1y := make([]float64, np), make([]float64, np)
	g2x, g2y := make([]float64, np), make([]float64, np)
	res := lse.Fused(d.CellX, d.CellY, 4, g1x, g1y)
	wl := lse.Grad(d.CellX, d.CellY, 4, g2x, g2y)
	hp := lse.HPWL(d.CellX, d.CellY)
	if math.Abs(res.WA-wl) > 1e-9*(1+wl) || math.Abs(res.HPWL-hp) > 1e-9*(1+hp) {
		t.Errorf("fused (%v,%v) vs unfused (%v,%v)", res.WA, res.HPWL, wl, hp)
	}
	for p := 0; p < np; p++ {
		if g1x[p] != g2x[p] || g1y[p] != g2y[p] {
			t.Fatalf("pin %d grads differ", p)
		}
	}
}

func TestLSEGradientBounded(t *testing.T) {
	// LSE pin gradients are differences of softmax weights: in [-1, 1].
	d := randomDesign(t, 40, 60, 16)
	e := eng()
	lse := newTestOps(t, e, d, LSE)
	np := d.NumPins()
	gx, gy := make([]float64, np), make([]float64, np)
	lse.Fused(d.CellX, d.CellY, 0.5, gx, gy)
	for p := 0; p < np; p++ {
		if math.Abs(gx[p]) > 1+1e-12 || math.Abs(gy[p]) > 1+1e-12 {
			t.Fatalf("pin %d gradient out of [-1,1]: %v %v", p, gx[p], gy[p])
		}
	}
}
