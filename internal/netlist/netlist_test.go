package netlist

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"xplace/internal/geom"
)

// buildTiny returns a sealed 3-cell, 2-net design:
//
//	a --- n1 --- b --- n2 --- c(fixed)
func buildTiny(t *testing.T) *Design {
	t.Helper()
	d := NewDesign("tiny", geom.Rect{Lx: 0, Ly: 0, Hx: 100, Hy: 100})
	a := d.AddCell("a", 2, 2, 10, 10, Movable)
	b := d.AddCell("b", 2, 2, 20, 10, Movable)
	c := d.AddCell("c", 4, 4, 50, 50, Fixed)
	n1 := d.AddNet("n1")
	d.AddPin(a, 0, 0)
	d.AddPin(b, 1, -1)
	n2 := d.AddNet("n2")
	d.AddPin(b, 0, 0)
	d.AddPin(c, 0, 0)
	_ = n1
	_ = n2
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
	return d
}

func TestBuilderCounts(t *testing.T) {
	d := buildTiny(t)
	if d.NumCells() != 3 || d.NumNets() != 2 || d.NumPins() != 4 {
		t.Fatalf("counts = %d/%d/%d", d.NumCells(), d.NumNets(), d.NumPins())
	}
	if !d.Finished() {
		t.Error("should be finished")
	}
}

func TestNetPinsAndReverseMap(t *testing.T) {
	d := buildTiny(t)
	if s, e := d.NetPinStart[0], d.NetPinStart[1]; s != 0 || e != 2 || d.PinNet[0] != 0 || d.PinNet[1] != 0 {
		t.Errorf("net 0 pins = [%d, %d)", s, e)
	}
	// Cell b (id 1) touches pins 1 and 2.
	pins := d.CellPins[d.CellPinStart[1]:d.CellPinStart[2]]
	if len(pins) != 2 {
		t.Fatalf("cell b pins = %v", pins)
	}
	if d.PinCell[pins[0]] != 1 || d.PinCell[pins[1]] != 1 {
		t.Error("reverse map points to wrong cell")
	}
}

func TestCellNetDegreeCountsDistinctNets(t *testing.T) {
	d := NewDesign("deg", geom.Rect{Hx: 10, Hy: 10})
	a := d.AddCell("a", 1, 1, 5, 5, Movable)
	b := d.AddCell("b", 1, 1, 6, 6, Movable)
	d.AddNet("n")
	d.AddPin(a, 0, 0)
	d.AddPin(a, 0.5, 0) // second pin of a on the same net
	d.AddPin(b, 0, 0)
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
	if d.CellNetDeg[a] != 1 {
		t.Errorf("deg(a) = %d, want 1 (distinct nets)", d.CellNetDeg[a])
	}
	if d.CellNetDeg[b] != 1 {
		t.Errorf("deg(b) = %d", d.CellNetDeg[b])
	}
}

// TestCellNetDegreeMatchesMapDefinition: on a random design where cells
// carry several pins on one net, CellNetDeg is the number of distinct nets
// among each cell's pins, counted with a set.
func TestCellNetDegreeMatchesMapDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	d := NewDesign("deg", geom.Rect{Hx: 100, Hy: 100})
	const nc = 60
	for i := 0; i < nc; i++ {
		d.AddCell("c", 1, 1, 50, 50, Movable)
	}
	for n := 0; n < 150; n++ {
		d.AddNet("n")
		deg := rng.Intn(8)
		for j := 0; j < deg; j++ {
			c := rng.Intn(nc / 4) // few cells per net: repeats are common
			d.AddPin(c, 0, 0)
			if rng.Intn(3) == 0 {
				d.AddPin(c, 0.5, 0) // a second pin of c on this net
			}
		}
	}
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
	repeats := 0
	for c := 0; c < nc; c++ {
		set := map[int]bool{}
		for p, pc := range d.PinCell {
			if pc == c {
				set[d.PinNet[p]] = true
			}
		}
		if d.CellNetDeg[c] != len(set) {
			t.Errorf("CellNetDeg[%d] = %d, want %d distinct nets", c, d.CellNetDeg[c], len(set))
		}
		repeats += d.CellPinStart[c+1] - d.CellPinStart[c] - len(set)
	}
	if repeats == 0 {
		t.Fatal("no cell has two pins on one net: the test checks nothing")
	}
}

func TestHPWLTinyDesign(t *testing.T) {
	d := buildTiny(t)
	// n1: pins at (10,10) and (21,9): HPWL = 11 + 1 = 12.
	// n2: pins at (20,10) and (50,50): HPWL = 30 + 40 = 70.
	if got := d.HPWL(nil, nil); math.Abs(got-82) > 1e-12 {
		t.Errorf("HPWL = %v, want 82", got)
	}
}

func TestHPWLSinglePinNetIsZero(t *testing.T) {
	d := NewDesign("single", geom.Rect{Hx: 10, Hy: 10})
	a := d.AddCell("a", 1, 1, 3, 3, Movable)
	d.AddNet("n")
	d.AddPin(a, 0, 0)
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
	if got := d.HPWL(nil, nil); got != 0 {
		t.Errorf("single-pin HPWL = %v", got)
	}
}

// Property: HPWL is invariant under global translation.
func TestHPWLTranslationInvariance(t *testing.T) {
	d := buildTiny(t)
	base := d.HPWL(nil, nil)
	f := func(dx, dy float64) bool {
		if math.Abs(dx) > 1e6 || math.Abs(dy) > 1e6 || math.IsNaN(dx) || math.IsNaN(dy) {
			return true
		}
		x := make([]float64, d.NumCells())
		y := make([]float64, d.NumCells())
		for c := range x {
			x[c] = d.CellX[c] + dx
			y[c] = d.CellY[c] + dy
		}
		got := d.HPWL(x, y)
		return math.Abs(got-base) < 1e-6*(1+math.Abs(base))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: moving one cell by delta changes HPWL by at most degree*2*|delta|.
func TestHPWLLipschitz(t *testing.T) {
	d := buildTiny(t)
	base := d.HPWL(nil, nil)
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 100; trial++ {
		c := rng.Intn(d.NumCells())
		dx := rng.NormFloat64()
		x := append([]float64(nil), d.CellX...)
		x[c] += dx
		got := d.HPWL(x, nil)
		bound := float64(d.CellNetDeg[c]) * math.Abs(dx)
		if math.Abs(got-base) > bound+1e-9 {
			t.Fatalf("HPWL jump %g exceeds Lipschitz bound %g", math.Abs(got-base), bound)
		}
	}
}

func TestCellRect(t *testing.T) {
	d := buildTiny(t)
	r := d.CellRect(2) // fixed 4x4 at (50,50)
	want := geom.Rect{Lx: 48, Ly: 48, Hx: 52, Hy: 52}
	if r != want {
		t.Errorf("CellRect = %v", r)
	}
}

func TestAreasAndUtilization(t *testing.T) {
	d := buildTiny(t)
	if got := d.MovableArea(); got != 8 {
		t.Errorf("MovableArea = %v", got)
	}
	if got := d.FixedArea(); got != 16 {
		t.Errorf("FixedArea = %v", got)
	}
	wantUtil := 8.0 / (100*100 - 16)
	if got := d.Utilization(); math.Abs(got-wantUtil) > 1e-12 {
		t.Errorf("Utilization = %v, want %v", got, wantUtil)
	}
}

func TestMovableCells(t *testing.T) {
	d := buildTiny(t)
	mv := d.MovableCells()
	if len(mv) != 2 || mv[0] != 0 || mv[1] != 1 {
		t.Errorf("MovableCells = %v", mv)
	}
}

// fillerRebuild is WithFillers' definition: a Clone of d with one
// AddCell per filler, "" names, the (2,3) Halton point, and Finish. The
// fillers fill targetDensity*(region - fixed) - movable with squares the
// size of the average movable cell.
func fillerRebuild(t *testing.T, d *Design, targetDensity float64) *Design {
	t.Helper()
	want := d.Clone()
	movable, movArea := 0, 0.0
	for c, k := range d.CellKind {
		if k == Movable {
			movable++
			movArea += d.CellW[c] * d.CellH[c]
		}
	}
	count, side := 0, 0.0
	if movable > 0 {
		side = math.Sqrt(movArea / float64(movable))
		if fill := targetDensity*(d.Region.Area()-d.FixedArea()) - movArea; fill > 0 {
			count = int(fill / (side * side))
		}
	}
	for i := 0; i < count; i++ {
		fx := d.Region.Lx + halton(i+1, 2)*d.Region.W()
		fy := d.Region.Ly + halton(i+1, 3)*d.Region.H()
		want.AddCell("", side, side, fx, fy, Filler)
	}
	return mustFinish(t, want)
}

// requireSameCells fails unless every per-cell slice of got and want, and
// CellPins, are equal bit for bit.
func requireSameCells(t *testing.T, got, want *Design) {
	t.Helper()
	if got.NumCells() != want.NumCells() {
		t.Fatalf("%d cells, want %d", got.NumCells(), want.NumCells())
	}
	bits := math.Float64bits
	for c := 0; c < want.NumCells(); c++ {
		if got.CellName[c] != want.CellName[c] || got.CellKind[c] != want.CellKind[c] || got.CellFence[c] != want.CellFence[c] ||
			got.CellNetDeg[c] != want.CellNetDeg[c] ||
			bits(got.CellW[c]) != bits(want.CellW[c]) || bits(got.CellH[c]) != bits(want.CellH[c]) ||
			bits(got.CellX[c]) != bits(want.CellX[c]) || bits(got.CellY[c]) != bits(want.CellY[c]) {
			t.Fatalf("cell %d = %q %v %gx%g at (%g, %g) fence %d deg %d, want %q %v %gx%g at (%g, %g) fence %d deg %d", c,
				got.CellName[c], got.CellKind[c], got.CellW[c], got.CellH[c], got.CellX[c], got.CellY[c], got.CellFence[c], got.CellNetDeg[c],
				want.CellName[c], want.CellKind[c], want.CellW[c], want.CellH[c], want.CellX[c], want.CellY[c], want.CellFence[c], want.CellNetDeg[c])
		}
	}
	requireSameInts(t, "CellPinStart", got.CellPinStart, want.CellPinStart)
	requireSameInts(t, "CellPins", got.CellPins, want.CellPins)
}

func requireSameInts(t *testing.T, name string, got, want []int) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s has %d entries, want %d", name, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s[%d] = %d, want %d", name, i, got[i], want[i])
		}
	}
}

// fillerCases are the designs WithFillers is pinned on: a plain one, a
// fenced one, one with no whitespace left and one with no movable cells.
func fillerCases(t *testing.T) map[string]*Design {
	t.Helper()
	plain := NewDesign("plain", geom.Rect{Lx: -3, Ly: 7, Hx: 91, Hy: 60})
	m0 := plain.AddCell("m0", 2, 3, 10, 10, Movable)
	m1 := plain.AddCell("m1", 5, 1, 20, 30, Movable)
	f0 := plain.AddCell("f0", 8, 8, 40, 40, Fixed)
	plain.AddNet("a")
	plain.AddPin(m0, 0.5, 0)
	plain.AddPin(m1, 0, -0.5)
	plain.AddPin(m0, -0.5, 1)
	plain.AddNet("b")
	plain.AddPin(m1, 0, 0)
	plain.AddPin(f0, 1, 1)

	fenced := NewDesign("fenced", geom.Rect{Hx: 50, Hy: 40})
	fid := fenced.AddFence(geom.Rect{Lx: 5, Ly: 5, Hx: 20, Hy: 20})
	for i := 0; i < 6; i++ {
		c := fenced.AddCell("c", 1+float64(i%3), 2, 10, 10, Movable)
		if i%2 == 0 {
			fenced.SetFence(c, fid)
		}
		fenced.AddNet("n")
		fenced.AddPin(c, 0, 0)
		if i > 0 {
			fenced.AddPin(c-1, 0.25, 0)
		}
	}

	dense := NewDesign("dense", geom.Rect{Hx: 10, Hy: 10})
	big := dense.AddCell("big", 10, 10, 5, 5, Movable)
	dense.AddNet("n")
	dense.AddPin(big, 0, 0)

	fixed := NewDesign("fixed", geom.Rect{Hx: 30, Hy: 30})
	p0 := fixed.AddCell("p0", 1, 1, 0.5, 0.5, Fixed)
	p1 := fixed.AddCell("p1", 1, 1, 29.5, 29.5, Fixed)
	fixed.AddNet("n")
	fixed.AddPin(p0, 0, 0)
	fixed.AddPin(p1, 0, 0)

	return map[string]*Design{
		"plain": mustFinish(t, plain), "fenced": mustFinish(t, fenced),
		"dense": mustFinish(t, dense), "fixed": mustFinish(t, fixed),
	}
}

// TestWithFillersMatchesRebuild pins WithFillers to its definition,
// fillerRebuild, bit for bit, and checks it copies every per-cell slice,
// shares the net and pin tables and leaves the caller's design alone.
func TestWithFillersMatchesRebuild(t *testing.T) {
	wantFillers := map[string]bool{"plain": true, "fenced": true}
	for name, d := range fillerCases(t) {
		t.Run(name, func(t *testing.T) {
			before := mustFinish(t, d.Clone())
			// The caller's per-cell arrays past their length too: a
			// filler appended into their spare capacity would be written
			// into the caller's memory.
			xCap := slices.Clone(d.CellX[:cap(d.CellX)])
			a := d.WithFillers(0.9)
			if !a.Finished() {
				t.Fatal("WithFillers returned an unfinished design")
			}
			fillers := a.NumCells() - d.NumCells()
			if (fillers > 0) != wantFillers[name] {
				t.Fatalf("%d fillers", fillers)
			}
			requireSameCells(t, a, fillerRebuild(t, d, 0.9))
			if &a.PinCell[0] != &d.PinCell[0] || &a.PinNet[0] != &d.PinNet[0] ||
				&a.PinOffX[0] != &d.PinOffX[0] || &a.PinOffY[0] != &d.PinOffY[0] ||
				&a.NetPinStart[0] != &d.NetPinStart[0] || &a.NetName[0] != &d.NetName[0] ||
				&a.CellPins[0] != &d.CellPins[0] {
				t.Error("net and pin tables copied, want the caller's own")
			}
			if len(d.Fences) > 0 && &a.Fences[0] != &d.Fences[0] {
				t.Error("fences copied, want the caller's own")
			}
			if &a.CellX[0] == &d.CellX[0] || &a.CellFence[0] == &d.CellFence[0] || &a.CellPinStart[0] == &d.CellPinStart[0] {
				t.Error("per-cell slice shared with the caller")
			}
			requireSameCells(t, d, before)
			if !slices.Equal(xCap, d.CellX[:cap(d.CellX)]) {
				t.Error("WithFillers wrote into the caller's CellX")
			}
		})
	}
}

func mustFinish(t *testing.T, d *Design) *Design {
	t.Helper()
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
	return d
}

// TestWithFillersAreaAndSide checks the filler arithmetic: total filler
// area near targetDensity*(region - fixed) - movable, square fillers the
// size of the average movable cell, every one inside the region.
func TestWithFillersAreaAndSide(t *testing.T) {
	d := NewDesign("fill", geom.Rect{Hx: 100, Hy: 100})
	for i := 0; i < 10; i++ {
		d.AddCell("c", 4, 4, 50, 50, Movable)
	}
	d.AddCell("f", 10, 10, 5, 5, Fixed)
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
	a := d.WithFillers(0.8)
	st := a.Stats()
	if st.Fillers == 0 || st.Movable != 10 || st.Fixed != 1 || a.NumCells() != 11+st.Fillers {
		t.Fatalf("stats = %+v", st)
	}
	var fa float64
	for c := d.NumCells(); c < a.NumCells(); c++ {
		if a.CellKind[c] != Filler || a.CellW[c] != 4 || a.CellH[c] != 4 || a.CellName[c] != "" {
			t.Fatalf("cell %d = %q %v %gx%g, want an unnamed 4x4 filler", c, a.CellName[c], a.CellKind[c], a.CellW[c], a.CellH[c])
		}
		fa += a.CellW[c] * a.CellH[c]
		if r, x, y := a.Region, a.CellX[c], a.CellY[c]; x < r.Lx || x >= r.Hx || y < r.Ly || y >= r.Hy {
			t.Fatalf("filler %d at %g,%g outside region", c, a.CellX[c], a.CellY[c])
		}
	}
	want := 0.8*(10000-100) - 160
	if math.Abs(fa-want) > want*0.02 {
		t.Errorf("filler area = %v, want about %v", fa, want)
	}
}

func TestWithFillersPanicsUnfinished(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("want panic")
		}
	}()
	d := NewDesign("open", geom.Rect{Hx: 10, Hy: 10})
	d.AddCell("a", 1, 1, 5, 5, Movable)
	d.WithFillers(1)
}

func TestFillerWithPinsRejected(t *testing.T) {
	d := NewDesign("bad", geom.Rect{Hx: 10, Hy: 10})
	f := d.AddCell("f", 1, 1, 5, 5, Filler)
	d.AddNet("n")
	d.AddPin(f, 0, 0)
	if err := d.Finish(); err == nil {
		t.Error("filler with pins should fail Finish")
	}
}

func TestBuilderPanics(t *testing.T) {
	d := NewDesign("p", geom.Rect{Hx: 10, Hy: 10})
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: want panic", name)
			}
		}()
		f()
	}
	mustPanic("pin before net", func() { d.AddPin(0, 0, 0) })
	mustPanic("negative size", func() { d.AddCell("x", -1, 1, 0, 0, Movable) })
	a := d.AddCell("a", 1, 1, 0, 0, Movable)
	d.AddNet("n")
	mustPanic("bad cell id", func() { d.AddPin(99, 0, 0) })
	d.AddPin(a, 0, 0)
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
	mustPanic("add cell after finish", func() { d.AddCell("z", 1, 1, 0, 0, Movable) })
	mustPanic("add net after finish", func() { d.AddNet("z") })
	if err := d.Finish(); err == nil {
		t.Error("double Finish should error")
	}
}

func TestEmptyRegionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("want panic")
		}
	}()
	NewDesign("e", geom.Rect{})
}

func TestCellKindString(t *testing.T) {
	if Movable.String() != "movable" || Fixed.String() != "fixed" || Filler.String() != "filler" {
		t.Error("kind strings wrong")
	}
	if CellKind(9).String() == "" {
		t.Error("unknown kind should still render")
	}
}

func TestHaltonUniformity(t *testing.T) {
	// The low-discrepancy sequence should roughly balance quadrant counts.
	n := 1000
	var q [4]int
	for i := 1; i <= n; i++ {
		x, y := halton(i, 2), halton(i, 3)
		idx := 0
		if x >= 0.5 {
			idx |= 1
		}
		if y >= 0.5 {
			idx |= 2
		}
		q[idx]++
	}
	for i, c := range q {
		if c < n/4-50 || c > n/4+50 {
			t.Errorf("quadrant %d count %d far from %d", i, c, n/4)
		}
	}
}

func BenchmarkHPWL(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	d := NewDesign("bench", geom.Rect{Hx: 1000, Hy: 1000})
	const nc, nn = 5000, 5000
	for i := 0; i < nc; i++ {
		d.AddCell("c", 2, 2, rng.Float64()*1000, rng.Float64()*1000, Movable)
	}
	for i := 0; i < nn; i++ {
		d.AddNet("n")
		deg := 2 + rng.Intn(5)
		for j := 0; j < deg; j++ {
			d.AddPin(rng.Intn(nc), 0, 0)
		}
	}
	if err := d.Finish(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.HPWL(nil, nil)
	}
}

func TestCloneIndependence(t *testing.T) {
	d := buildTiny(t)
	c := d.Clone()
	if c.Finished() {
		t.Fatal("clone must be unfinished")
	}
	// Extend the clone; the original must be untouched.
	c.AddCell("extra", 1, 1, 5, 5, Filler)
	c.CellX[0] = 999
	if err := c.Finish(); err != nil {
		t.Fatal(err)
	}
	if d.NumCells() != 3 || d.CellX[0] == 999 {
		t.Error("clone mutation leaked into original")
	}
	if c.NumCells() != 4 {
		t.Errorf("clone cells = %d", c.NumCells())
	}
	// CSR rebuilt identically for shared prefix.
	if c.CellNetDeg[1] != d.CellNetDeg[1] {
		t.Error("clone CSR differs")
	}
}

func TestCloneCopiesFences(t *testing.T) {
	d := NewDesign("f", geom.Rect{Hx: 10, Hy: 10})
	a := d.AddCell("a", 1, 1, 2, 2, Movable)
	fid := d.AddFence(geom.Rect{Lx: 0, Ly: 0, Hx: 4, Hy: 4})
	d.SetFence(a, fid)
	c := d.Clone()
	if r, ok := c.FenceOf(a); !ok || r.Hx != 4 {
		t.Error("fence not cloned")
	}
	c.Fences[0].Hx = 9
	if d.Fences[0].Hx != 4 {
		t.Error("fence slice shared between clone and original")
	}
}
