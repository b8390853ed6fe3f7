package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestRectBasics(t *testing.T) {
	r := Rect{1, 2, 4, 6}
	if r.W() != 3 || r.H() != 4 {
		t.Fatalf("W/H = %v/%v", r.W(), r.H())
	}
	if !almostEq(r.Area(), 12) {
		t.Errorf("Area = %v", r.Area())
	}
	if r.Empty() {
		t.Error("should not be empty")
	}
	if c := r.Center(); c != (Point{2.5, 4}) {
		t.Errorf("Center = %v", c)
	}
}

func TestRectEmpty(t *testing.T) {
	cases := []Rect{
		{0, 0, 0, 5},
		{0, 0, 5, 0},
		{2, 2, 1, 3},
	}
	for _, r := range cases {
		if !r.Empty() {
			t.Errorf("%v should be empty", r)
		}
		if r.Area() != 0 {
			t.Errorf("%v area should be 0", r)
		}
	}
}

func TestRectIntersect(t *testing.T) {
	a := Rect{0, 0, 10, 10}
	b := Rect{5, 5, 15, 15}
	got := a.Intersect(b)
	want := Rect{5, 5, 10, 10}
	if got != want {
		t.Errorf("Intersect = %v, want %v", got, want)
	}
	if !almostEq(got.Area(), 25) {
		t.Errorf("overlap area = %v", got.Area())
	}
	// Disjoint.
	c := Rect{20, 20, 30, 30}
	if !a.Intersect(c).Empty() {
		t.Error("disjoint intersect should be empty")
	}
	if a.Intersect(c).Area() != 0 {
		t.Error("disjoint overlap should be 0")
	}
}

func TestRectUnion(t *testing.T) {
	a := Rect{0, 0, 1, 1}
	b := Rect{5, 5, 6, 7}
	got := a.Union(b)
	want := Rect{0, 0, 6, 7}
	if got != want {
		t.Errorf("Union = %v, want %v", got, want)
	}
	var empty Rect
	if a.Union(empty) != a || empty.Union(a) != a {
		t.Error("union with empty should return the other rect")
	}
}

func TestRectTranslateContains(t *testing.T) {
	r := Rect{0, 0, 2, 2}
	moved := Rect{r.Lx + 3, r.Ly + 4, r.Hx + 3, r.Hy + 4}
	outer := Rect{0, 0, 10, 10}
	if !outer.ContainsRect(moved) {
		t.Error("outer should contain moved")
	}
	if outer.ContainsRect(Rect{8, 8, 12, 12}) {
		t.Error("should not contain overflowing rect")
	}
}

func TestClamp(t *testing.T) {
	if Clamp(5, 0, 10) != 5 || Clamp(-1, 0, 10) != 0 || Clamp(11, 0, 10) != 10 {
		t.Error("Clamp wrong")
	}
}

func TestGridBasics(t *testing.T) {
	g := NewGrid(Rect{0, 0, 100, 50}, 10, 5)
	if g.Dx != 10 || g.Dy != 10 {
		t.Fatalf("Dx/Dy = %v/%v", g.Dx, g.Dy)
	}
	if g.NumBins() != 50 {
		t.Errorf("NumBins = %d", g.NumBins())
	}
	if !almostEq(g.BinArea(), 100) {
		t.Errorf("BinArea = %v", g.BinArea())
	}
	if ix, iy := g.BinCoords(Point{15, 25}); ix != 1 || iy != 2 {
		t.Errorf("BinCoords = %d,%d", ix, iy)
	}
	// Clamping out-of-region points.
	if ix, iy := g.BinCoords(Point{-1, 999}); ix != 0 || iy != 4 {
		t.Errorf("clamped BinCoords = %d,%d", ix, iy)
	}
	br := g.BinRect(1, 2)
	if br != (Rect{10, 20, 20, 30}) {
		t.Errorf("BinRect = %v", br)
	}
}

func TestGridBinRange(t *testing.T) {
	g := NewGrid(Rect{0, 0, 100, 100}, 10, 10)
	x0, x1, y0, y1 := g.BinRange(Rect{15, 15, 35, 25})
	if x0 != 1 || x1 != 4 || y0 != 1 || y1 != 3 {
		t.Errorf("BinRange = %d..%d, %d..%d", x0, x1, y0, y1)
	}
	// A rect aligned exactly to bin boundaries should not spill over.
	x0, x1, y0, y1 = g.BinRange(Rect{10, 10, 20, 20})
	if x0 != 1 || x1 != 2 || y0 != 1 || y1 != 2 {
		t.Errorf("aligned BinRange = %d..%d, %d..%d", x0, x1, y0, y1)
	}
	// Degenerate rect still yields one bin.
	x0, x1, y0, y1 = g.BinRange(Rect{55, 55, 55, 55})
	if x1-x0 != 0 || y1-y0 != 0 {
		// Empty rect reports empty range.
		t.Errorf("empty rect range = %d..%d, %d..%d", x0, x1, y0, y1)
	}
	// Out-of-region rect clamps into the grid.
	x0, x1, y0, y1 = g.BinRange(Rect{-50, -50, -10, -10})
	if x0 != 0 || x1 != 1 || y0 != 0 || y1 != 1 {
		t.Errorf("clamped BinRange = %d..%d, %d..%d", x0, x1, y0, y1)
	}
}

func TestGridPanicsOnBadDims(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for 0x0 grid")
		}
	}()
	NewGrid(Rect{0, 0, 1, 1}, 0, 0)
}

// Property: overlap is symmetric and bounded by either area.
func TestOverlapProperties(t *testing.T) {
	f := func(ax, ay, aw, ah, bx, by, bw, bh float64) bool {
		ax, ay, bx, by = math.Mod(ax, 100), math.Mod(ay, 100), math.Mod(bx, 100), math.Mod(by, 100)
		a := Rect{ax, ay, ax + math.Abs(math.Mod(aw, 50)), ay + math.Abs(math.Mod(ah, 50))}
		b := Rect{bx, by, bx + math.Abs(math.Mod(bw, 50)), by + math.Abs(math.Mod(bh, 50))}
		ov1, ov2 := a.Intersect(b).Area(), b.Intersect(a).Area()
		if !almostEq(ov1, ov2) {
			return false
		}
		return ov1 <= a.Area()+1e-9 && ov1 <= b.Area()+1e-9 && ov1 >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: the overlaps of a rect with all bins in its BinRange sum to the
// area of the rect clipped to the region.
func TestBinRangeCoversClippedArea(t *testing.T) {
	g := NewGrid(Rect{0, 0, 64, 64}, 8, 8)
	f := func(x, y, w, h float64) bool {
		x, y = math.Mod(x, 80)-8, math.Mod(y, 80)-8
		r := Rect{x, y, x + math.Abs(math.Mod(w, 30)), y + math.Abs(math.Mod(h, 30))}
		clipped := r.Intersect(g.Region)
		x0, x1, y0, y1 := g.BinRange(r)
		var sum float64
		for iy := y0; iy < y1; iy++ {
			for ix := x0; ix < x1; ix++ {
				sum += g.BinRect(ix, iy).Intersect(r).Area()
			}
		}
		return math.Abs(sum-clipped.Area()) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestGridBinRangeEmptyRect(t *testing.T) {
	g := NewGrid(Rect{0, 0, 10, 10}, 5, 5)
	x0, x1, y0, y1 := g.BinRange(Rect{3, 3, 2, 2}) // malformed => empty
	if x0 != 0 || x1 != 0 || y0 != 0 || y1 != 0 {
		t.Errorf("empty rect should give empty range, got %d..%d %d..%d", x0, x1, y0, y1)
	}
}
