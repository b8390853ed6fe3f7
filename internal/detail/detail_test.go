package detail

import (
	"math/rand"
	"slices"
	"testing"

	"xplace/internal/geom"
	"xplace/internal/legal"
	"xplace/internal/netlist"
)

// legalDesign builds a legal row design with connected neighbours placed
// deliberately badly (shuffled), so detailed placement has work to do.
func legalDesign(tb testing.TB, n int, seed int64) (*netlist.Design, []float64, []float64) {
	tb.Helper()
	rng := rand.New(rand.NewSource(seed))
	side := 64.0
	d := netlist.NewDesign("dp", geom.Rect{Hx: side, Hy: side})
	for y := 0.0; y+4 <= side; y += 4 {
		d.Rows = append(d.Rows, netlist.Row{Y: y, X0: 0, X1: side, Height: 4, SiteWidth: 1})
	}
	// All cells 2x4: swaps always legal.
	for i := 0; i < n; i++ {
		d.AddCell("c", 2, 4, 0, 0, netlist.Movable)
	}
	// Chain + grid connectivity.
	for i := 0; i+1 < n; i++ {
		d.AddNet("n")
		d.AddPin(i, 0, 0)
		d.AddPin(i+1, 0, 0)
	}
	for i := 0; i+16 < n; i += 4 {
		d.AddNet("m")
		d.AddPin(i, 0, 0)
		d.AddPin(i+16, 0, 0)
	}
	// Cases the swap caches treat apart: a cell with two pins on one net
	// (its slot's offset box spans both) and a single-pin net (HPWL 0).
	d.AddNet("two")
	d.AddPin(0, -0.5, 1)
	d.AddPin(0, 0.5, -1)
	d.AddPin(n/2, 0, 0)
	d.AddNet("one")
	d.AddPin(n-1, 0, 0)
	if err := d.Finish(); err != nil {
		tb.Fatal(err)
	}
	// Legal positions: fill rows left to right, but assign cells in
	// SHUFFLED order so connectivity does not match geometry.
	slots := make([][2]float64, 0, n)
	perRow := int(side / 2)
	for i := 0; i < n; i++ {
		row := i / perRow
		col := i % perRow
		slots = append(slots, [2]float64{float64(col*2) + 1, float64(row*4) + 2})
	}
	perm := rng.Perm(n)
	x := make([]float64, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		x[i] = slots[perm[i]][0]
		y[i] = slots[perm[i]][1]
	}
	return d, x, y
}

func TestRunImprovesHPWLAndStaysLegal(t *testing.T) {
	d, x, y := legalDesign(t, 300, 1)
	if v := legal.Check(d, x, y); len(v) != 0 {
		t.Fatalf("input not legal: %+v", v[0])
	}
	before := d.HPWL(x, y)
	nx, ny := Run(d, x, y, Options{Passes: 2})
	after := d.HPWL(nx, ny)
	if after >= before {
		t.Errorf("no improvement: %.1f -> %.1f", before, after)
	}
	if v := legal.Check(d, nx, ny); len(v) != 0 {
		t.Fatalf("output not legal: %d violations, first %+v", len(v), v[0])
	}
	improvement := (before - after) / before
	t.Logf("HPWL %.1f -> %.1f (%.1f%% better)", before, after, improvement*100)
	if improvement < 0.05 {
		t.Errorf("improvement %.2f%% too small for a shuffled placement", improvement*100)
	}
}

func TestRunDoesNotMutateInput(t *testing.T) {
	d, x, y := legalDesign(t, 100, 2)
	xc := append([]float64(nil), x...)
	yc := append([]float64(nil), y...)
	Run(d, x, y, Options{Passes: 1})
	for i := range x {
		if x[i] != xc[i] || y[i] != yc[i] {
			t.Fatal("input slices were mutated")
		}
	}
}

func TestRunIdempotentOnConverged(t *testing.T) {
	d, x, y := legalDesign(t, 150, 3)
	nx, ny := Run(d, x, y, Options{Passes: 3})
	h1 := d.HPWL(nx, ny)
	nx2, ny2 := Run(d, nx, ny, Options{Passes: 1})
	h2 := d.HPWL(nx2, ny2)
	if h2 > h1+1e-9 {
		t.Errorf("second run degraded HPWL: %.2f -> %.2f", h1, h2)
	}
}

func TestGlobalSwapOnlySwapsSameFootprint(t *testing.T) {
	// A design with two cell sizes: after refinement, the multiset of
	// positions per footprint must be preserved.
	d := netlist.NewDesign("fp", geom.Rect{Hx: 32, Hy: 8})
	d.Rows = append(d.Rows, netlist.Row{Y: 0, X0: 0, X1: 32, Height: 4, SiteWidth: 1},
		netlist.Row{Y: 4, X0: 0, X1: 32, Height: 4, SiteWidth: 1})
	a := d.AddCell("a", 2, 4, 1, 2, netlist.Movable)
	b := d.AddCell("b", 4, 4, 4, 2, netlist.Movable)
	c := d.AddCell("c", 2, 4, 31, 6, netlist.Movable)
	d.AddNet("n")
	d.AddPin(a, 0, 0)
	d.AddPin(b, 0, 0)
	d.AddNet("m")
	d.AddPin(c, 0, 0)
	d.AddPin(b, 0, 0)
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
	nx, ny := Run(d, d.CellX, d.CellY, Options{Passes: 2})
	if v := legal.Check(d, nx, ny); len(v) != 0 {
		t.Fatalf("not legal: %+v", v[0])
	}
	// Width-4 cell must still be at a position a width-4 cell occupied.
	if nx[b] != 4 || ny[b] != 2 {
		// b may not move at all (no same-size partner).
		t.Errorf("width-4 cell moved to (%v,%v) without a same-size partner", nx[b], ny[b])
	}
}

func TestPermutations(t *testing.T) {
	perms := permutations(3)
	// lengths 2 and 3: 2 + 6 = 8 permutations.
	if len(perms) != 8 {
		t.Fatalf("permutations(3) returned %d, want 8", len(perms))
	}
	full := 0
	for _, p := range perms {
		if len(p) == 3 {
			full++
		}
	}
	if full != 6 {
		t.Errorf("full-length perms = %d, want 6", full)
	}
}

func TestNetHPWLAndUnion(t *testing.T) {
	d, x, y := legalDesign(t, 20, 4)
	st := &state{d: d, x: x, y: y}
	var total float64
	for n := 0; n < d.NumNets(); n++ {
		total += st.netHPWL(n)
	}
	if want := d.HPWL(x, y); total != want {
		t.Errorf("sum of net HPWL %v != design HPWL %v", total, want)
	}
	// The cell→net table against its definition: each cell's distinct
	// nets in first-pin order.
	st = newState(d, x, y)
	for c := 0; c < d.NumCells(); c++ {
		var want []int
		for _, p := range d.CellPins[d.CellPinStart[c]:d.CellPinStart[c+1]] {
			if !slices.Contains(want, d.PinNet[p]) {
				want = append(want, d.PinNet[p])
			}
		}
		if got := st.cellNets(c); !slices.Equal(got, want) {
			t.Errorf("cell %d nets %v, want %v", c, got, want)
		}
	}
	if pins, nets := d.CellPinStart[1]-d.CellPinStart[0], len(st.cellNets(0)); pins <= nets {
		t.Errorf("cell 0 has %d pins on %d nets: no net holds two of its pins", pins, nets)
	}
}

// TestRunAllocsScaleWithDesign: Run allocates per cell and net, not per
// swap candidate. Rebuilding two net maps per candidate made 2 537 164
// allocations on this design.
func TestRunAllocsScaleWithDesign(t *testing.T) {
	d, x, y := legalDesign(t, 1000, 1)
	allocs := testing.AllocsPerRun(2, func() { Run(d, x, y, Options{Passes: 1}) })
	if ceiling := 2 * float64(d.NumCells()+d.NumNets()); allocs > ceiling {
		t.Errorf("Run made %.0f allocations, ceiling 2×(cells+nets) = %.0f", allocs, ceiling)
	}
}

func BenchmarkDetailRun(b *testing.B) {
	d, x, y := legalDesign(b, 1000, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Run(d, x, y, Options{Passes: 1})
	}
}
