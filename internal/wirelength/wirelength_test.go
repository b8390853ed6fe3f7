package wirelength

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"xplace/internal/benchgen"
	"xplace/internal/geom"
	"xplace/internal/kernel"
	"xplace/internal/netlist"
)

// randomDesign builds a seeded random design with nc movable cells and nn
// nets of degree 2..6.
func randomDesign(tb testing.TB, nc, nn int, seed int64) *netlist.Design {
	tb.Helper()
	rng := rand.New(rand.NewSource(seed))
	d := netlist.NewDesign("rand", geom.Rect{Hx: 1000, Hy: 1000})
	for i := 0; i < nc; i++ {
		d.AddCell("c", 2, 2, 10+rng.Float64()*980, 10+rng.Float64()*980, netlist.Movable)
	}
	for i := 0; i < nn; i++ {
		d.AddNet("n")
		deg := 2 + rng.Intn(5)
		for j := 0; j < deg; j++ {
			d.AddPin(rng.Intn(nc), rng.NormFloat64(), rng.NormFloat64())
		}
	}
	if err := d.Finish(); err != nil {
		tb.Fatal(err)
	}
	return d
}

func eng() *kernel.Engine { return kernel.New(kernel.Options{Workers: 4}) }

// newTestOps builds the operator set of model m for (e, d) and returns its
// arena checkouts when the test ends.
func newTestOps(tb testing.TB, e *kernel.Engine, d *netlist.Design, m Model) *Ops {
	tb.Helper()
	o := NewOps(e, d, m)
	tb.Cleanup(o.Release)
	return o
}

func TestHPWLMatchesNetlistReference(t *testing.T) {
	d := randomDesign(t, 50, 80, 1)
	e := eng()
	wa := newTestOps(t, e, d, WA)
	got := wa.HPWL(d.CellX, d.CellY)
	want := d.HPWL(nil, nil)
	if math.Abs(got-want) > 1e-9*(1+want) {
		t.Errorf("HPWL = %v, want %v", got, want)
	}
}

func TestWAUnderestimatesAndConvergesToHPWL(t *testing.T) {
	d := randomDesign(t, 40, 60, 2)
	e := eng()
	wa := newTestOps(t, e, d, WA)
	hp := d.HPWL(nil, nil)
	prevGap := math.Inf(1)
	for _, gamma := range []float64{100, 10, 1, 0.1} {
		wl := wa.Forward(d.CellX, d.CellY, gamma)
		if wl > hp+1e-6 {
			t.Errorf("gamma=%v: WA %v exceeds HPWL %v", gamma, wl, hp)
		}
		gap := hp - wl
		if gap > prevGap+1e-9 {
			t.Errorf("gamma=%v: gap %v grew from %v (should shrink)", gamma, gap, prevGap)
		}
		prevGap = gap
	}
	if prevGap > 0.01*hp {
		t.Errorf("gamma=0.1 gap %v still more than 1%% of HPWL %v", prevGap, hp)
	}
}

func TestFusedAgreesWithUnfused(t *testing.T) {
	d := randomDesign(t, 60, 90, 3)
	e := eng()
	wa := newTestOps(t, e, d, WA)
	np := d.NumPins()
	gx1, gy1 := make([]float64, np), make([]float64, np)
	gx2, gy2 := make([]float64, np), make([]float64, np)
	gamma := 5.0

	res := wa.Fused(d.CellX, d.CellY, gamma, gx1, gy1)
	unf := wa.Grad(d.CellX, d.CellY, gamma, gx2, gy2)
	hp := wa.HPWL(d.CellX, d.CellY)
	fwd := wa.Forward(d.CellX, d.CellY, gamma)

	if math.Abs(res.WA-unf) > 1e-9*(1+math.Abs(unf)) {
		t.Errorf("fused WA %v != unfused %v", res.WA, unf)
	}
	if math.Abs(res.WA-fwd) > 1e-9*(1+math.Abs(fwd)) {
		t.Errorf("fused WA %v != forward-only %v", res.WA, fwd)
	}
	if math.Abs(res.HPWL-hp) > 1e-9*(1+hp) {
		t.Errorf("fused HPWL %v != unfused %v", res.HPWL, hp)
	}
	for p := 0; p < np; p++ {
		if math.Abs(gx1[p]-gx2[p]) > 1e-12 || math.Abs(gy1[p]-gy2[p]) > 1e-12 {
			t.Fatalf("pin %d grads disagree: (%v,%v) vs (%v,%v)", p, gx1[p], gy1[p], gx2[p], gy2[p])
		}
	}
}

func TestFusedUsesOneLaunchUnfusedTwo(t *testing.T) {
	d := randomDesign(t, 30, 40, 4)
	np := d.NumPins()
	gx, gy := make([]float64, np), make([]float64, np)

	eF := eng()
	newTestOps(t, eF, d, WA).Fused(d.CellX, d.CellY, 5, gx, gy)
	if got := eF.Stats().Launches; got != 1 {
		t.Errorf("fused launches = %d, want 1", got)
	}

	eU := eng()
	unfused := newTestOps(t, eU, d, WA)
	unfused.Grad(d.CellX, d.CellY, 5, gx, gy)
	unfused.HPWL(d.CellX, d.CellY)
	if got := eU.Stats().Launches; got != 2 {
		t.Errorf("unfused launches = %d, want 2", got)
	}
}

// Finite-difference check of the WA gradient.
func TestWAGradientFiniteDifference(t *testing.T) {
	d := randomDesign(t, 12, 20, 5)
	e := eng()
	wa := newTestOps(t, e, d, WA)
	gamma := 3.0
	np := d.NumPins()
	gx, gy := make([]float64, np), make([]float64, np)
	wa.Fused(d.CellX, d.CellY, gamma, gx, gy)
	// Cell gradient via pin scatter.
	cgx := make([]float64, d.NumCells())
	cgy := make([]float64, d.NumCells())
	wa.PinToCell(gx, gy, cgx, cgy)

	h := 1e-5
	x := append([]float64(nil), d.CellX...)
	for c := 0; c < d.NumCells(); c++ {
		x[c] += h
		up := wa.Forward(x, d.CellY, gamma)
		x[c] -= 2 * h
		dn := wa.Forward(x, d.CellY, gamma)
		x[c] += h
		fd := (up - dn) / (2 * h)
		if math.Abs(fd-cgx[c]) > 1e-4*(1+math.Abs(fd)) {
			t.Errorf("cell %d: analytic %v vs FD %v", c, cgx[c], fd)
		}
	}
}

// The gradient of a translation-invariant function sums to ~zero per net.
func TestWAGradientSumsToZero(t *testing.T) {
	d := randomDesign(t, 30, 50, 6)
	e := eng()
	wa := newTestOps(t, e, d, WA)
	np := d.NumPins()
	gx, gy := make([]float64, np), make([]float64, np)
	wa.Fused(d.CellX, d.CellY, 2, gx, gy)
	for n := 0; n < d.NumNets(); n++ {
		var sx, sy float64
		for p := d.NetPinStart[n]; p < d.NetPinStart[n+1]; p++ {
			sx += gx[p]
			sy += gy[p]
		}
		if math.Abs(sx) > 1e-9 || math.Abs(sy) > 1e-9 {
			t.Fatalf("net %d gradient sum = (%v, %v)", n, sx, sy)
		}
	}
}

// For a 2-pin net with small gamma, gradients approach +-1 (the exact HPWL
// subgradient).
func TestWAGradientTwoPinLimit(t *testing.T) {
	d := netlist.NewDesign("two", geom.Rect{Hx: 100, Hy: 100})
	a := d.AddCell("a", 1, 1, 10, 50, netlist.Movable)
	b := d.AddCell("b", 1, 1, 90, 50, netlist.Movable)
	d.AddNet("n")
	d.AddPin(a, 0, 0)
	d.AddPin(b, 0, 0)
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
	e := eng()
	wa := newTestOps(t, e, d, WA)
	gx, gy := make([]float64, 2), make([]float64, 2)
	wa.Fused(d.CellX, d.CellY, 0.01, gx, gy)
	if math.Abs(gx[0]+1) > 1e-6 || math.Abs(gx[1]-1) > 1e-6 {
		t.Errorf("x grads = %v, want [-1, 1]", gx)
	}
	if math.Abs(gy[0]) > 1e-6 || math.Abs(gy[1]) > 1e-6 {
		t.Errorf("y grads = %v, want [0, 0]", gy)
	}
}

func TestSmallNetsContributeZeroAndClearGrads(t *testing.T) {
	d := netlist.NewDesign("deg1", geom.Rect{Hx: 100, Hy: 100})
	a := d.AddCell("a", 1, 1, 10, 10, netlist.Movable)
	d.AddNet("n1")
	d.AddPin(a, 0, 0)
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
	e := eng()
	wa := newTestOps(t, e, d, WA)
	gx := []float64{123}
	gy := []float64{456}
	res := wa.Fused(d.CellX, d.CellY, 1, gx, gy)
	if res.WA != 0 || res.HPWL != 0 {
		t.Errorf("single-pin net result = %+v", res)
	}
	if gx[0] != 0 || gy[0] != 0 {
		t.Errorf("stale grads not cleared: %v %v", gx, gy)
	}
}

func TestPinToCellGrad(t *testing.T) {
	d := randomDesign(t, 20, 30, 7)
	e := eng()
	wa := newTestOps(t, e, d, WA)
	np := d.NumPins()
	pgx := make([]float64, np)
	pgy := make([]float64, np)
	for p := 0; p < np; p++ {
		pgx[p] = float64(p)
		pgy[p] = -float64(p)
	}
	cgx := make([]float64, d.NumCells())
	cgy := make([]float64, d.NumCells())
	wa.PinToCell(pgx, pgy, cgx, cgy)
	// Reference: direct accumulation.
	wantX := make([]float64, d.NumCells())
	wantY := make([]float64, d.NumCells())
	for p := 0; p < np; p++ {
		wantX[d.PinCell[p]] += pgx[p]
		wantY[d.PinCell[p]] += pgy[p]
	}
	for c := 0; c < d.NumCells(); c++ {
		if cgx[c] != wantX[c] || cgy[c] != wantY[c] {
			t.Fatalf("cell %d grad = (%v,%v), want (%v,%v)", c, cgx[c], cgy[c], wantX[c], wantY[c])
		}
	}
}

func TestStabilityWithExtremeCoordinates(t *testing.T) {
	// The stable form (Eq. 6) must not overflow even with huge coordinates
	// and tiny gamma.
	d := netlist.NewDesign("extreme", geom.Rect{Hx: 1e9, Hy: 1e9})
	a := d.AddCell("a", 1, 1, 1e8, 1e8, netlist.Movable)
	b := d.AddCell("b", 1, 1, 9e8, 9e8, netlist.Movable)
	d.AddNet("n")
	d.AddPin(a, 0, 0)
	d.AddPin(b, 0, 0)
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
	e := eng()
	wa := newTestOps(t, e, d, WA)
	gx, gy := make([]float64, 2), make([]float64, 2)
	res := wa.Fused(d.CellX, d.CellY, 1e-3, gx, gy)
	if math.IsNaN(res.WA) || math.IsInf(res.WA, 0) {
		t.Errorf("WA overflowed: %v", res.WA)
	}
	for _, g := range append(gx, gy...) {
		if math.IsNaN(g) || math.IsInf(g, 0) {
			t.Errorf("gradient overflowed: %v %v", gx, gy)
		}
	}
}

// oracleNetWA is the three-pass per-net WA routine this package ran before
// the cached-weight one — min/max, exponential sums, then the gradient, each
// pass re-gathering the pin coordinate and the last re-evaluating both
// exponentials — kept verbatim as the bit-identity reference.
func oracleNetWA(d *netlist.Design, n int, pos []float64, off []float64, gamma float64, grad []float64) (float64, float64) {
	s, e := d.NetPinStart[n], d.NetPinStart[n+1]
	if e-s < 2 {
		if grad != nil {
			for p := s; p < e; p++ {
				grad[p] = 0
			}
		}
		return 0, 0
	}
	// Pass 1: min/max (shared by WA, gradient and HPWL).
	minV, maxV := math.Inf(1), math.Inf(-1)
	for p := s; p < e; p++ {
		v := pos[d.PinCell[p]] + off[p]
		if v < minV {
			minV = v
		}
		if v > maxV {
			maxV = v
		}
	}
	hpwl := maxV - minV
	// Pass 2: stable exponential sums (Eq. 6).
	inv := 1 / gamma
	var sPlus, sMinus, bPlus, bMinus float64
	for p := s; p < e; p++ {
		v := pos[d.PinCell[p]] + off[p]
		ap := math.Exp((v - maxV) * inv)
		am := math.Exp((minV - v) * inv)
		sPlus += ap
		sMinus += am
		bPlus += v * ap
		bMinus += v * am
	}
	wa := bPlus/sPlus - bMinus/sMinus
	if grad != nil {
		// Pass 3: gradient. d(B+/S+)/dv_j = a_j*(S+ + (v_j*S+ - B+)/gamma)/S+^2
		// and symmetrically for the minus term.
		invSP2 := 1 / (sPlus * sPlus)
		invSM2 := 1 / (sMinus * sMinus)
		for p := s; p < e; p++ {
			v := pos[d.PinCell[p]] + off[p]
			ap := math.Exp((v - maxV) * inv)
			am := math.Exp((minV - v) * inv)
			gp := ap * (sPlus + (v*sPlus-bPlus)*inv) * invSP2
			gm := am * (sMinus - (v*sMinus-bMinus)*inv) * invSM2
			grad[p] = gp - gm
		}
	}
	return wa, hpwl
}

// oracleNetLSE is the three-pass per-net LSE routine, verbatim like
// oracleNetWA.
func oracleNetLSE(d *netlist.Design, n int, pos []float64, off []float64, gamma float64, grad []float64) (float64, float64) {
	s, e := d.NetPinStart[n], d.NetPinStart[n+1]
	if e-s < 2 {
		if grad != nil {
			for p := s; p < e; p++ {
				grad[p] = 0
			}
		}
		return 0, 0
	}
	minV, maxV := math.Inf(1), math.Inf(-1)
	for p := s; p < e; p++ {
		v := pos[d.PinCell[p]] + off[p]
		if v < minV {
			minV = v
		}
		if v > maxV {
			maxV = v
		}
	}
	hpwl := maxV - minV
	inv := 1 / gamma
	var sPlus, sMinus float64
	for p := s; p < e; p++ {
		v := pos[d.PinCell[p]] + off[p]
		sPlus += math.Exp((v - maxV) * inv)
		sMinus += math.Exp((minV - v) * inv)
	}
	// LSE = gamma*(log sum e^{(v-max)/g} + max/g + log sum e^{(min-v)/g} - min/g)
	lse := gamma*(math.Log(sPlus)+math.Log(sMinus)) + hpwl
	if grad != nil {
		invSP := 1 / sPlus
		invSM := 1 / sMinus
		for p := s; p < e; p++ {
			v := pos[d.PinCell[p]] + off[p]
			gp := math.Exp((v-maxV)*inv) * invSP
			gm := math.Exp((minV-v)*inv) * invSM
			grad[p] = gp - gm
		}
	}
	return lse, hpwl
}

// blockEdgeDegrees is a run of net degrees that puts 0- and 1-pin nets on
// both sides of staged-block boundaries. The first net is larger than a
// block, so it is a block of its own wherever the run starts, and the 0-pin
// net after it opens the next block; that block fills to exactly blockPins
// pins with a 0-pin net last, so the 1-pin net after it opens another,
// which ends on a 1-pin net because the 2-pin net after it does not fit.
var blockEdgeDegrees = []int{
	blockPins + 5,
	0, 1, blockPins - 2, 0, 1, 0,
	1, 0, blockPins - 3, 0, 1,
	2,
}

// oracleNetsDesign builds nets of degree 0, 1, 2 (distinct pins; both pins
// coincident; coincident in one dimension only), 3, 24 and 500, repeated
// until there are at least minNets of them, with a blockEdgeDegrees run
// after every 60 repeats. Cells sit on a coarse lattice and pin offsets
// come from a small set, so the larger nets have several pins tied at their
// min and at their max.
func oracleNetsDesign(tb testing.TB, minNets int, seed int64) *netlist.Design {
	tb.Helper()
	rng := rand.New(rand.NewSource(seed))
	d := netlist.NewDesign("oracle", geom.Rect{Hx: 100, Hy: 100})
	const nc = 400
	for i := 0; i < nc; i++ {
		d.AddCell("c", 1, 1, float64(5+10*rng.Intn(10)), float64(5+10*rng.Intn(10)), netlist.Movable)
	}
	offs := []float64{0, 0, 0.5, -0.5, 0.123}
	off := func() float64 { return offs[rng.Intn(len(offs))] }
	big := 0
	for round := 1; d.NumNets() < minNets; round++ {
		degs := []int{0, 1, 2, 2, 2, 3, 24, 500}
		if round%60 == 0 {
			degs = append(degs, blockEdgeDegrees...)
		}
		for _, deg := range degs {
			if deg == 500 {
				if big++; big > 3 {
					continue
				}
			}
			variant := d.NumNets() % 3
			d.AddNet("n")
			first := rng.Intn(nc)
			for j := 0; j < deg; j++ {
				c := rng.Intn(nc)
				ox, oy := off(), off()
				switch {
				case deg == 2 && variant == 1: // both pins coincident
					c, ox, oy = first, 0.5, -0.5
				case deg == 2 && variant == 2 && j == 1: // same y, other x
					c, ox, oy = first, 3.25, d.PinOffY[len(d.PinOffY)-1]
				case deg == 3 && j == 2: // a tie in a three-pin net
					c, ox, oy = first, d.PinOffX[len(d.PinOffX)-2], d.PinOffY[len(d.PinOffY)-2]
				}
				if j == 0 {
					c = first
				}
				d.AddPin(c, ox, oy)
			}
		}
	}
	if err := d.Finish(); err != nil {
		tb.Fatal(err)
	}
	return d
}

// blockEdges records which edges of the staged-block walk a run's chunks
// reached.
type blockEdges struct {
	bigBlock             bool // a net larger than blockPins, alone in its block
	zeroEnds, zeroStarts bool // a 0-pin net last / first in a block inside a chunk
	oneEnds, oneStarts   bool // the same for a 1-pin net
	chunkCut             bool // a block ended by its chunk's end with room for the next net
}

// walk adds the edges that the blocks of chunk [lo, hi) reach.
func (b *blockEdges) walk(d *netlist.Design, lo, hi int) {
	start := d.NetPinStart
	deg := func(n int) int { return start[n+1] - start[n] }
	for n0 := lo; n0 < hi; {
		n1 := blockEnd(start, n0, hi)
		if n1 == n0+1 && deg(n0) > blockPins {
			b.bigBlock = true
		}
		if n0 > lo {
			b.zeroStarts = b.zeroStarts || deg(n0) == 0
			b.oneStarts = b.oneStarts || deg(n0) == 1
		}
		if n1 < hi {
			b.zeroEnds = b.zeroEnds || deg(n1-1) == 0
			b.oneEnds = b.oneEnds || deg(n1-1) == 1
		} else if hi < d.NumNets() && start[hi+1]-start[n0] <= blockPins {
			b.chunkCut = true
		}
		n0 = n1
	}
}

// TestNetKernelsBitIdenticalToThreePassOracle pins the cached-weight per-net
// routines — and the fused and unfused operators built on them, per-chunk
// scratch and the staged-block walk included — to the three-pass oracles:
// smoothed value, HPWL and every pin gradient, bit for bit. The design's
// blocks reach every edge of the walk on 1, 2 and 3 workers: a net larger
// than a block, 0- and 1-pin nets on both sides of a block boundary, and
// (on 2 and 3) blocks cut short by a chunk's end. The standalone HPWL
// operator has the fused HPWL's bits too. The four operators allocate
// nothing.
func TestNetKernelsBitIdenticalToThreePassOracle(t *testing.T) {
	if math.Exp(0) != 1 || math.Exp(math.Copysign(0, -1)) != 1 {
		t.Fatal("math.Exp(±0) != 1: expOrOne is not an identity on this platform")
	}
	d := oracleNetsDesign(t, 2100, 1) // >= the engine's parallel threshold: with 3 workers all chunks run
	np := d.NumPins()
	degrees := map[int]int{}
	for n := 0; n < d.NumNets(); n++ {
		degrees[d.NetPinStart[n+1]-d.NetPinStart[n]]++
	}
	for _, deg := range []int{0, 1, 2, 3, 24, 500, blockPins + 5} {
		if degrees[deg] == 0 {
			t.Fatalf("no net of degree %d in the design: %v", deg, degrees)
		}
	}
	bitsEq := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for _, m := range []struct {
		name   string
		model  Model
		oracle func(*netlist.Design, int, []float64, []float64, float64, []float64) (float64, float64)
	}{{"WA", WA, oracleNetWA}, {"LSE", LSE, oracleNetLSE}} {
		for _, gamma := range []float64{1e-3, 1, 50} {
			for _, workers := range []int{1, 2, 3} {
				t.Run(fmt.Sprintf("%s/gamma=%g/workers=%d", m.name, gamma, workers), func(t *testing.T) {
					e := kernel.New(kernel.Options{Workers: workers})
					defer e.Close()
					ops := newTestOps(t, e, d, m.model)
					wantGX, wantGY := make([]float64, np), make([]float64, np)
					partWL, partHP := make([]float64, workers), make([]float64, workers)
					chunks := make([][2]int, workers)
					used := e.LaunchChunks("oracle", d.NumNets(), func(w, lo, hi int) {
						var wl, hp float64
						for n := lo; n < hi; n++ {
							wx, hx := m.oracle(d, n, d.CellX, d.PinOffX, gamma, wantGX)
							wy, hy := m.oracle(d, n, d.CellY, d.PinOffY, gamma, wantGY)
							wl += wx + wy
							hp += hx + hy
						}
						partWL[w], partHP[w] = wl, hp
						chunks[w] = [2]int{lo, hi}
					})
					if used != workers {
						t.Fatalf("%d chunks on %d workers", used, workers)
					}
					var want Result
					var edges blockEdges
					for w := 0; w < used; w++ {
						want.WA += partWL[w]
						want.HPWL += partHP[w]
						edges.walk(d, chunks[w][0], chunks[w][1])
					}
					wantEdges := blockEdges{true, true, true, true, true, workers > 1}
					if edges != wantEdges {
						t.Fatalf("block edges reached: %+v, want %+v", edges, wantEdges)
					}

					gx, gy := make([]float64, np), make([]float64, np)
					checkGrads := func(op string) {
						t.Helper()
						for p := 0; p < np; p++ {
							if !bitsEq(gx[p], wantGX[p]) || !bitsEq(gy[p], wantGY[p]) {
								t.Fatalf("%s: pin %d (net %d) gradient (%v, %v), oracle (%v, %v)",
									op, p, d.PinNet[p], gx[p], gy[p], wantGX[p], wantGY[p])
							}
							gx[p], gy[p] = math.NaN(), math.NaN()
						}
					}
					if got := ops.Fused(d.CellX, d.CellY, gamma, gx, gy); !bitsEq(got.WA, want.WA) || !bitsEq(got.HPWL, want.HPWL) {
						t.Errorf("Fused = %+v, oracle %+v", got, want)
					}
					checkGrads("Fused")
					if got := ops.Grad(d.CellX, d.CellY, gamma, gx, gy); !bitsEq(got, want.WA) {
						t.Errorf("Grad = %v, oracle %v", got, want.WA)
					}
					checkGrads("Grad")
					if got := ops.Forward(d.CellX, d.CellY, gamma); !bitsEq(got, want.WA) {
						t.Errorf("Forward = %v, oracle %v", got, want.WA)
					}
					if got := ops.HPWL(d.CellX, d.CellY); !bitsEq(got, want.HPWL) {
						t.Errorf("HPWL = %v, fused oracle %v", got, want.HPWL)
					}

					for _, op := range []struct {
						name string
						run  func()
					}{
						{"Fused", func() { ops.Fused(d.CellX, d.CellY, gamma, gx, gy) }},
						{"Grad", func() { ops.Grad(d.CellX, d.CellY, gamma, gx, gy) }},
						{"Forward", func() { ops.Forward(d.CellX, d.CellY, gamma) }},
						{"HPWL", func() { ops.HPWL(d.CellX, d.CellY) }},
					} {
						if a := testing.AllocsPerRun(20, op.run); a != 0 {
							t.Errorf("%s allocates %v times per call, want 0", op.name, a)
						}
					}
				})
			}
		}
	}
}

// TestOpsReleaseReturnsArena: a bare Ops gives everything it checked out —
// the per-chunk partials and the per-net scratch — back on Release, and
// checks it out again on the next evaluation.
func TestOpsReleaseReturnsArena(t *testing.T) {
	e := eng()
	defer e.Close()
	d := randomDesign(t, 50, 80, 8)
	np := d.NumPins()
	gx, gy := make([]float64, np), make([]float64, np)
	o := NewOps(e, d, WA)
	if e.ArenaStats().InUse == 0 {
		t.Fatal("NewOps checked nothing out of the arena")
	}
	first := o.Fused(d.CellX, d.CellY, 5, gx, gy)
	o.Release()
	o.Release() // idempotent
	if got := e.ArenaStats().InUse; got != 0 {
		t.Fatalf("arena in-use after Release = %d bytes, want 0", got)
	}
	if again := o.Fused(d.CellX, d.CellY, 5, gx, gy); again != first {
		t.Errorf("Fused after Release = %+v, want %+v", again, first)
	}
	o.Release()
	if got := e.ArenaStats().InUse; got != 0 {
		t.Fatalf("arena in-use after second Release = %d bytes, want 0", got)
	}
}

func BenchmarkFused(b *testing.B) {
	d := randomDesign(b, 5000, 5000, 1)
	e := eng()
	wa := newTestOps(b, e, d, WA)
	np := d.NumPins()
	gx, gy := make([]float64, np), make([]float64, np)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wa.Fused(d.CellX, d.CellY, 5, gx, gy)
	}
}

func BenchmarkUnfused(b *testing.B) {
	d := randomDesign(b, 5000, 5000, 1)
	e := eng()
	wa := newTestOps(b, e, d, WA)
	np := d.NumPins()
	gx, gy := make([]float64, np), make([]float64, np)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wa.Grad(d.CellX, d.CellY, 5, gx, gy)
		wa.HPWL(d.CellX, d.CellY)
	}
}

// BenchmarkOpsFused times the fused operator on the two shapes of the
// repository benchmark where wirelength matters — gp-small (adaptec1 x
// 0.004) and gp-cells (x 0.25), filler-augmented as the placer runs them —
// on a 2-worker engine (the harness's engine setting).
func BenchmarkOpsFused(b *testing.B) {
	spec, ok := benchgen.FindSpec("adaptec1")
	if !ok {
		b.Fatal("no adaptec1 spec")
	}
	for _, sh := range []struct {
		name  string
		scale float64
	}{{"gp-small", 0.004}, {"gp-cells", 0.25}} {
		b.Run(sh.name, func(b *testing.B) {
			d := benchgen.Generate(spec, sh.scale, 1).WithFillers(1.0)
			e := kernel.New(kernel.Options{Workers: 2})
			defer e.Close()
			o := newTestOps(b, e, d, WA)
			np := d.NumPins()
			gx, gy := make([]float64, np), make([]float64, np)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				o.Fused(d.CellX, d.CellY, 5, gx, gy)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(np), "ns/pin")
		})
	}
}
