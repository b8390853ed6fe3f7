package netlist

import (
	"fmt"
	"math"
	"math/rand"
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
	if pins := d.NetPins(0); len(pins) != 2 || pins[0] != 0 || pins[1] != 1 {
		t.Errorf("NetPins(0) = %v", pins)
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

func TestPinPos(t *testing.T) {
	d := buildTiny(t)
	px, py := d.PinPos(1, nil, nil) // pin on b with offset (1,-1)
	if px != 21 || py != 9 {
		t.Errorf("PinPos = %v,%v", px, py)
	}
	x := append([]float64(nil), d.CellX...)
	x[1] += 5
	px, _ = d.PinPos(1, x, nil)
	if px != 26 {
		t.Errorf("PinPos with override = %v", px)
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

func TestAddFillers(t *testing.T) {
	d := NewDesign("fill", geom.Rect{Hx: 100, Hy: 100})
	for i := 0; i < 10; i++ {
		d.AddCell("c", 4, 4, 50, 50, Movable)
	}
	n := d.AddFillers(0.8)
	if n == 0 {
		t.Fatal("expected fillers")
	}
	// Filler area should approximate 0.8*10000 - 160 = 7840.
	var fa float64
	for c, k := range d.CellKind {
		if k == Filler {
			fa += d.CellW[c] * d.CellH[c]
			if !d.Region.Contains(geom.Point{X: d.CellX[c], Y: d.CellY[c]}) {
				t.Fatalf("filler %d at %g,%g outside region", c, d.CellX[c], d.CellY[c])
			}
		}
	}
	want := 0.8*10000 - 160
	if math.Abs(fa-want) > want*0.02 {
		t.Errorf("filler area = %v, want about %v", fa, want)
	}
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
	st := d.Stats()
	if st.Fillers != n || st.Movable != 10 {
		t.Errorf("stats = %+v", st)
	}
}

// TestAddFillersNamesAndPositions pins every filler to the AddCell-per-
// filler definition: the name "__filler_<i>", the side of the average
// movable cell and the (2,3) Halton point, bit for bit, after the cells
// that were there.
func TestAddFillersNamesAndPositions(t *testing.T) {
	d := NewDesign("fill", geom.Rect{Lx: -3, Ly: 7, Hx: 91, Hy: 60})
	d.AddCell("m0", 2, 3, 10, 10, Movable)
	d.AddCell("m1", 5, 1, 20, 30, Movable)
	d.AddCell("f0", 8, 8, 40, 40, Fixed)
	want := d.Clone()
	n := d.AddFillers(0.9)
	if n < 100 {
		t.Fatalf("only %d fillers", n)
	}
	side := math.Sqrt((2*3 + 5*1) / 2.0)
	for i := 0; i < n; i++ {
		fx := want.Region.Lx + halton(i+1, 2)*want.Region.W()
		fy := want.Region.Ly + halton(i+1, 3)*want.Region.H()
		want.AddCell(fmt.Sprintf("__filler_%d", i), side, side, fx, fy, Filler)
	}
	if d.NumCells() != want.NumCells() {
		t.Fatalf("%d cells, want %d", d.NumCells(), want.NumCells())
	}
	bits := math.Float64bits
	for c := 0; c < d.NumCells(); c++ {
		if d.CellName[c] != want.CellName[c] || d.CellKind[c] != want.CellKind[c] || d.CellFence[c] != want.CellFence[c] ||
			bits(d.CellW[c]) != bits(want.CellW[c]) || bits(d.CellH[c]) != bits(want.CellH[c]) ||
			bits(d.CellX[c]) != bits(want.CellX[c]) || bits(d.CellY[c]) != bits(want.CellY[c]) {
			t.Fatalf("cell %d = %q %v %gx%g at (%g, %g) fence %d, want %q %v %gx%g at (%g, %g) fence %d", c,
				d.CellName[c], d.CellKind[c], d.CellW[c], d.CellH[c], d.CellX[c], d.CellY[c], d.CellFence[c],
				want.CellName[c], want.CellKind[c], want.CellW[c], want.CellH[c], want.CellX[c], want.CellY[c], want.CellFence[c])
		}
	}
}

func TestAddFillersNoWhitespace(t *testing.T) {
	d := NewDesign("dense", geom.Rect{Hx: 10, Hy: 10})
	d.AddCell("big", 10, 10, 5, 5, Movable)
	if n := d.AddFillers(0.9); n != 0 {
		t.Errorf("no room for fillers, got %d", n)
	}
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
