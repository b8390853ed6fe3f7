package benchgen

import (
	"math"
	"testing"

	"xplace/internal/geom"
	"xplace/internal/netlist"
)

func TestCatalogsMatchTable1(t *testing.T) {
	c5 := Catalog2005()
	if len(c5) != 8 {
		t.Fatalf("ISPD 2005 catalog has %d designs, want 8", len(c5))
	}
	c15 := Catalog2015()
	if len(c15) != 20 {
		t.Fatalf("ISPD 2015 catalog has %d designs, want 20", len(c15))
	}
	// Spot-check published counts from Table 1.
	checks := map[string][2]int{
		"adaptec1":    {211_000, 221_000},
		"bigblue4":    {2_177_000, 2_230_000},
		"fft_1":       {35_000, 33_000},
		"superblue12": {1_293_000, 1_293_000},
	}
	for name, want := range checks {
		s, ok := FindSpec(name)
		if !ok {
			t.Errorf("missing spec %q", name)
			continue
		}
		if s.Cells != want[0] || s.Nets != want[1] {
			t.Errorf("%s: %d/%d, want %d/%d", name, s.Cells, s.Nets, want[0], want[1])
		}
	}
	if _, ok := FindSpec("nonexistent"); ok {
		t.Error("FindSpec should miss unknown names")
	}
	// Exactly 9 dagger (fence-removed) designs in Table 4.
	fences := 0
	for _, s := range c15 {
		if s.Fence {
			fences++
		}
	}
	if fences != 9 {
		t.Errorf("fence-removed designs = %d, want 9", fences)
	}
}

func TestGenerateScaledCounts(t *testing.T) {
	s, _ := FindSpec("adaptec1")
	d := Generate(s, 0.02, 1)
	st := d.Stats()
	wantCells := int(float64(s.Cells) * 0.02)
	if st.Movable < wantCells*95/100 || st.Movable > wantCells*105/100 {
		t.Errorf("movable = %d, want about %d", st.Movable, wantCells)
	}
	wantNets := int(float64(s.Nets) * 0.02)
	if st.Nets < wantNets*95/100 || st.Nets > wantNets*105/100 {
		t.Errorf("nets = %d, want about %d", st.Nets, wantNets)
	}
	if st.Fixed == 0 {
		t.Error("expected fixed macros and pads")
	}
}

func TestGenerateMinimumFloor(t *testing.T) {
	s := Spec{Name: "tiny", Suite: "ispd2005", Cells: 1000, Nets: 1000, Util: 0.5}
	d := Generate(s, 0.0001, 1)
	if d.Stats().Movable < 500 {
		t.Errorf("floor not applied: %d cells", d.Stats().Movable)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	s, _ := FindSpec("fft_1")
	a := Generate(s, 0.05, 7)
	b := Generate(s, 0.05, 7)
	if a.NumCells() != b.NumCells() || a.NumPins() != b.NumPins() {
		t.Fatal("same seed produced different sizes")
	}
	for i := range a.CellX {
		if a.CellX[i] != b.CellX[i] || a.CellW[i] != b.CellW[i] {
			t.Fatalf("cell %d differs", i)
		}
	}
	c := Generate(s, 0.05, 8)
	same := true
	for i := range a.CellX {
		if a.CellX[i] != c.CellX[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical designs")
	}
}

func TestGenerateUtilizationNearSpec(t *testing.T) {
	for _, name := range []string{"adaptec1", "bigblue1", "fft_1"} {
		s, _ := FindSpec(name)
		d := Generate(s, 0.02, 3)
		got := d.Utilization()
		if math.Abs(got-s.Util) > 0.15 {
			t.Errorf("%s: utilization %.3f, spec %.3f", name, got, s.Util)
		}
	}
}

func TestGenerateMacrosDisjointAndInside(t *testing.T) {
	s, _ := FindSpec("adaptec3")
	d := Generate(s, 0.01, 5)
	var rects []geom.Rect
	for c, k := range d.CellKind {
		if k == netlist.Fixed && d.CellW[c] > 2 {
			r := d.CellRect(c)
			if !d.Region.ContainsRect(r) {
				t.Errorf("macro %d outside region: %v", c, r)
			}
			rects = append(rects, r)
		}
	}
	if len(rects) < 4 {
		t.Fatalf("expected several macros, got %d", len(rects))
	}
	for i := 0; i < len(rects); i++ {
		for j := i + 1; j < len(rects); j++ {
			if ov := rects[i].Intersect(rects[j]).Area(); ov > 1e-9 {
				t.Errorf("macros %d and %d overlap by %g", i, j, ov)
			}
		}
	}
}

func TestGenerateRowsCoverRegion(t *testing.T) {
	s, _ := FindSpec("fft_a")
	d := Generate(s, 0.05, 2)
	if len(d.Rows) == 0 {
		t.Fatal("no rows")
	}
	for _, r := range d.Rows {
		if r.Height != RowHeight || r.X0 != d.Region.Lx || r.X1 != d.Region.Hx {
			t.Errorf("bad row %+v", r)
		}
		if r.Y < d.Region.Ly || r.Y+r.Height > d.Region.Hy+1e-9 {
			t.Errorf("row outside region: %+v", r)
		}
	}
}

func TestNetDegreeDistribution(t *testing.T) {
	s, _ := FindSpec("adaptec1")
	d := Generate(s, 0.02, 9)
	hist := map[int]int{}
	maxDeg := 0
	for n := 0; n < d.NumNets(); n++ {
		deg := d.NetPinStart[n+1] - d.NetPinStart[n]
		hist[deg]++
		if deg > maxDeg {
			maxDeg = deg
		}
	}
	total := d.NumNets()
	if frac2 := float64(hist[2]) / float64(total); frac2 < 0.4 || frac2 > 0.7 {
		t.Errorf("2-pin fraction = %.3f, want contest-like ~0.55", frac2)
	}
	if maxDeg > 24 {
		t.Errorf("max degree %d exceeds cap", maxDeg)
	}
	avgPins := float64(d.NumPins()) / float64(total)
	if avgPins < 2.5 || avgPins > 4.5 {
		t.Errorf("avg pins/net = %.2f, want 2.5-4.5", avgPins)
	}
}

func TestConnectivityHasLocality(t *testing.T) {
	// Nets mostly connect logically nearby cells: the mean logical index
	// distance of 2-pin nets must be far below the random expectation.
	s, _ := FindSpec("fft_2")
	d := Generate(s, 0.1, 4)
	nCells := 0
	for _, k := range d.CellKind {
		if k == netlist.Movable {
			nCells++
		}
	}
	cols := int(math.Ceil(math.Sqrt(float64(nCells))))
	var sum float64
	var cnt int
	for n := 0; n < d.NumNets(); n++ {
		st, en := d.NetPinStart[n], d.NetPinStart[n+1]
		if en-st != 2 {
			continue
		}
		a, b := d.PinCell[st], d.PinCell[st+1]
		if a >= nCells || b >= nCells {
			continue
		}
		ax, ay := a%cols, a/cols
		bx, by := b%cols, b/cols
		sum += math.Abs(float64(ax-bx)) + math.Abs(float64(ay-by))
		cnt++
	}
	if cnt == 0 {
		t.Skip("no 2-pin cell-to-cell nets")
	}
	mean := sum / float64(cnt)
	randomExpect := float64(cols) * 2 / 3
	if mean > randomExpect/3 {
		t.Errorf("mean logical distance %.2f too high vs random %.2f — no locality", mean, randomExpect)
	}
}

func BenchmarkGenerateAdaptec1(b *testing.B) {
	s, _ := FindSpec("adaptec1")
	for i := 0; i < b.N; i++ {
		Generate(s, 0.05, int64(i))
	}
}
