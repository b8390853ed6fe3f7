package field

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"xplace/internal/backend"
	"xplace/internal/benchgen"
	"xplace/internal/dct"
	"xplace/internal/geom"
	"xplace/internal/kernel"
	"xplace/internal/netlist"
)

func eng() *kernel.Engine { return kernel.New(kernel.Options{Workers: 4}) }

func newSys(nx, ny int, e *kernel.Engine) *System {
	return NewSystem(geom.NewGrid(geom.Rect{Hx: float64(nx), Hy: float64(ny)}, nx, ny), e)
}

func TestKindMask(t *testing.T) {
	if !MaskMovable.Has(netlist.Movable) || MaskMovable.Has(netlist.Fixed) {
		t.Error("MaskMovable wrong")
	}
	if !MaskAll.Has(netlist.Filler) || !MaskAll.Has(netlist.Fixed) {
		t.Error("MaskAll wrong")
	}
	if MaskPlaceable.Has(netlist.Fixed) || !MaskPlaceable.Has(netlist.Filler) {
		t.Error("MaskPlaceable wrong")
	}
}

// Density scatter must conserve total area for interior cells.
func TestScatterConservesArea(t *testing.T) {
	e := eng()
	s := newSys(16, 16, e)
	d := netlist.NewDesign("cons", s.Grid.Region)
	// Mix of bin-aligned, sub-bin (expanded) and multi-bin cells, interior.
	d.AddCell("a", 1, 1, 5.5, 5.5, netlist.Movable)
	d.AddCell("b", 0.25, 0.25, 8.2, 8.7, netlist.Movable) // smaller than a bin
	d.AddCell("c", 3.5, 2.5, 10.1, 4.3, netlist.Movable)
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
	out := make([]float64, 16*16)
	s.ScatterDensity(e, d, nil, nil, MaskMovable, out, "scatter")
	var got float64
	for _, v := range out {
		got += v * s.Grid.BinArea()
	}
	want := 1.0 + 0.25*0.25 + 3.5*2.5
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("scattered area = %v, want %v", got, want)
	}
}

func TestScatterRespectsMask(t *testing.T) {
	e := eng()
	s := newSys(8, 8, e)
	d := netlist.NewDesign("mask", s.Grid.Region)
	d.AddCell("m", 1, 1, 2, 2, netlist.Movable)
	d.AddCell("f", 1, 1, 6, 6, netlist.Fixed)
	d.AddCell("fl", 1, 1, 4, 4, netlist.Filler)
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
	sum := func(mask KindMask) float64 {
		out := make([]float64, 64)
		s.ScatterDensity(e, d, nil, nil, mask, out, "s")
		var a float64
		for _, v := range out {
			a += v * s.Grid.BinArea()
		}
		return a
	}
	if got := sum(MaskMovable); math.Abs(got-1) > 1e-9 {
		t.Errorf("movable area = %v", got)
	}
	if got := sum(MaskMovable | MaskFixed); math.Abs(got-2) > 1e-9 {
		t.Errorf("movable+fixed area = %v", got)
	}
	if got := sum(MaskFiller); math.Abs(got-1) > 1e-9 {
		t.Errorf("filler area = %v", got)
	}
}

func TestScatterClipsToRegion(t *testing.T) {
	e := eng()
	s := newSys(8, 8, e)
	d := netlist.NewDesign("clip", s.Grid.Region)
	d.AddCell("edge", 2, 2, 0, 4, netlist.Movable) // half outside at x<0
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
	out := make([]float64, 64)
	s.ScatterDensity(e, d, nil, nil, MaskMovable, out, "s")
	var a float64
	for _, v := range out {
		a += v * s.Grid.BinArea()
	}
	if math.Abs(a-2) > 1e-9 { // only half the 2x2 cell is inside
		t.Errorf("clipped area = %v, want 2", a)
	}
}

// TestDensityMapsMatchesSequence: the one scatter and the one density-map
// reduce of DensityMaps write D, Dfl, Total and the overflow ratio of the
// sequence they replace — two ScatterDensity calls, an elementwise add and
// Overflow — bit for bit, on both backends and at engine widths whose
// chunks split the cells and the bins differently.
func TestDensityMapsMatchesSequence(t *testing.T) {
	const target = 0.6
	grid := geom.NewGrid(geom.Rect{Lx: -3.5, Ly: 10.25, Hx: 997.2, Hy: 611.9}, 64, 64)
	d := oracleDesign(t, grid, 5000, 3) // >= the parallel threshold, as are the 4096 bins
	for _, workers := range []int{1, 2, 3, 4} {
		for _, be := range []backend.Backend{nil, backend.Float32()} {
			t.Run(fmt.Sprintf("workers=%d/f32=%v", workers, be != nil), func(t *testing.T) {
				e := kernel.New(kernel.Options{Workers: workers})
				defer e.Close()
				want := NewSystemOn(grid, e, be)
				defer want.Release(e)
				want.ScatterDensity(e, d, nil, nil, MaskMovable|MaskFixed, want.D, "density.cells")
				want.ScatterDensity(e, d, nil, nil, MaskFiller, want.Dfl, "density.fillers")
				for i := range want.Total {
					want.Total[i] = want.D[i] + want.Dfl[i]
				}
				wantOvfl := want.Overflow(e, d, want.D, target)

				got := NewSystemOn(grid, e, be)
				defer got.Release(e)
				e.Reset()
				ovfl := got.DensityMaps(e, d, d.CellX, d.CellY, target)
				if math.Float64bits(ovfl) != math.Float64bits(wantOvfl) {
					t.Errorf("overflow %v, sequence %v", ovfl, wantOvfl)
				}
				if wantOvfl == 0 {
					t.Error("zero overflow: the case tests little")
				}
				for name, pair := range map[string][2][]float64{
					"D": {got.D, want.D}, "Dfl": {got.Dfl, want.Dfl}, "Total": {got.Total, want.Total},
				} {
					var mass float64
					for i, w := range pair[1] {
						if math.Float64bits(pair[0][i]) != math.Float64bits(w) {
							t.Fatalf("%s[%d] = %v, sequence %v", name, i, pair[0][i], w)
						}
						mass += w
					}
					if mass == 0 {
						t.Fatalf("empty %s map: the case tests nothing", name)
					}
				}
				per := e.Stats().PerOp
				for _, op := range []string{"density.scatter", "density.maps"} {
					if per[op].Launches != 1 {
						t.Errorf("%s: %d launches, want 1", op, per[op].Launches)
					}
				}
				if st := e.Stats(); st.Launches != 2 {
					t.Errorf("DensityMaps made %d launches, want 2: %v", st.Launches, st.PerOp)
				}
			})
		}
	}
}

// Analytic Poisson check: for rho = cos(wu(x+1/2))cos(wv(y+1/2)) the
// potential is rho/(wu^2+wv^2), so the energy 0.5*sum(rho*psi) is
// 0.5*(Nx*Ny/4)/(wu^2+wv^2), and the x field is wu/(wu^2+wv^2)*sin*cos.
func TestPoissonAnalyticBasis(t *testing.T) {
	e := eng()
	nx, ny := 32, 32
	s := newSys(nx, ny, e)
	u, v := 3, 5
	wu := math.Pi * float64(u) / float64(nx)
	wv := math.Pi * float64(v) / float64(ny)
	for yy := 0; yy < ny; yy++ {
		for xx := 0; xx < nx; xx++ {
			s.Total[yy*nx+xx] = math.Cos(wu*(float64(xx)+0.5)) * math.Cos(wv*(float64(yy)+0.5))
		}
	}
	energy := s.SolvePoisson(e)
	den := wu*wu + wv*wv
	if want := 0.5 * float64(nx*ny) / 4 / den; math.Abs(energy-want) > 1e-12*want {
		t.Errorf("energy = %v, want %v", energy, want)
	}
	for yy := 0; yy < ny; yy++ {
		for xx := 0; xx < nx; xx++ {
			i := yy*nx + xx
			wantEx := wu / den * math.Sin(wu*(float64(xx)+0.5)) * math.Cos(wv*(float64(yy)+0.5))
			if math.Abs(s.Ex[i]-wantEx) > 1e-9 {
				t.Fatalf("Ex[%d] = %v, want %v", i, s.Ex[i], wantEx)
			}
			wantEy := wv / den * math.Cos(wu*(float64(xx)+0.5)) * math.Sin(wv*(float64(yy)+0.5))
			if math.Abs(s.Ey[i]-wantEy) > 1e-9 {
				t.Fatalf("Ey[%d] = %v, want %v", i, s.Ey[i], wantEy)
			}
		}
	}
}

// TestSpectralEnergyMatchesDirect: the energy SolvePoisson accumulates over
// the spectrum equals 0.5*sum(Total*psi) with psi evaluated on the grid
// from the same coefficients, on square and non-square grids.
func TestSpectralEnergyMatchesDirect(t *testing.T) {
	e := eng()
	defer e.Close()
	rng := rand.New(rand.NewSource(7))
	for _, dims := range [][2]int{{32, 32}, {64, 16}, {128, 128}} {
		nx, ny := dims[0], dims[1]
		s := newSys(nx, ny, e)
		for i := range s.Total {
			s.Total[i] = 2 * rng.Float64() * rng.Float64()
		}
		energy := s.SolvePoisson(e)
		psi := make([]float64, nx*ny)
		ex, ey := make([]float64, nx*ny), make([]float64, nx*ny)
		s.plan.EvalPotentialField(s.coef, s.wu, s.wv, psi, ex, ey, e)
		var direct float64
		for i, rho := range s.Total {
			direct += rho * psi[i]
		}
		direct *= 0.5
		rel := math.Abs(energy-direct) / direct
		if !(rel <= 1e-12) {
			t.Errorf("%dx%d: spectral energy %v, direct %v (rel %g)", nx, ny, energy, direct, rel)
		}
		t.Logf("%dx%d: energy %v, rel diff to direct %.1e", nx, ny, energy, rel)
	}
}

func TestPoissonUniformDensityZeroField(t *testing.T) {
	e := eng()
	s := newSys(16, 16, e)
	for i := range s.Total {
		s.Total[i] = 0.7
	}
	energy := s.SolvePoisson(e)
	for i := range s.Ex {
		if math.Abs(s.Ex[i]) > 1e-9 || math.Abs(s.Ey[i]) > 1e-9 {
			t.Fatalf("uniform density must give zero field, got %v %v", s.Ex[i], s.Ey[i])
		}
	}
	if math.Abs(energy) > 1e-9 {
		t.Errorf("uniform density energy = %v, want 0 (DC removed)", energy)
	}
}

// TestSolvePoissonBitIdenticalAcrossWorkers: at the gp-spectral grid the
// solve's line passes fan out over the pool, yet Ex, Ey and the energy are
// the one-worker bits on a 2-worker engine.
func TestSolvePoissonBitIdenticalAcrossWorkers(t *testing.T) {
	const n = 512
	solve := func(workers int) (ex, ey []float64, energy float64) {
		e := kernel.New(kernel.Options{Workers: workers})
		defer e.Close()
		s := newSys(n, n, e)
		defer s.Release(e)
		rng := rand.New(rand.NewSource(11))
		for i := range s.Total {
			s.Total[i] = rng.Float64()
		}
		energy = s.SolvePoisson(e)
		return append([]float64(nil), s.Ex...), append([]float64(nil), s.Ey...), energy
	}
	ex1, ey1, en1 := solve(1)
	ex2, ey2, en2 := solve(2)
	if math.Float64bits(en1) != math.Float64bits(en2) {
		t.Errorf("energy: 2 workers %v, 1 worker %v", en2, en1)
	}
	for i := range ex1 {
		if math.Float64bits(ex1[i]) != math.Float64bits(ex2[i]) || math.Float64bits(ey1[i]) != math.Float64bits(ey2[i]) {
			t.Fatalf("bin %d: 2 workers (%v, %v), 1 worker (%v, %v)", i, ex2[i], ey2[i], ex1[i], ey1[i])
		}
	}
}

// TestSolvePoissonOneLaunch: on a grid kernel.OneBlock admits the solve is
// one "poisson.solve" launch whose energy, Ex and Ey are the bits of the
// passes it replaces — Plan.DCT2, spectralScale over every row and
// Plan.EvalPotentialField, run one after the other. Larger grids keep their
// five launches: 128² on any engine, 512² on a one-worker engine too.
func TestSolvePoissonOneLaunch(t *testing.T) {
	passes := []string{"spectral2.fwd_rows", "spectral2.fwd_cols", "poisson.spectral_scale",
		"spectral2.field_rows", "spectral2.field_cols"}
	for _, c := range []struct {
		nx, ny, workers int
		oneLaunch       bool
	}{
		{32, 32, 1, true}, {32, 32, 4, true},
		{64, 64, 1, true}, {64, 64, 4, true},
		{64, 128, 1, true}, {64, 128, 4, true},
		{128, 128, 1, false}, {128, 128, 4, false},
		{512, 512, 1, false},
	} {
		t.Run(fmt.Sprintf("%dx%d/workers=%d", c.nx, c.ny, c.workers), func(t *testing.T) {
			e := kernel.New(kernel.Options{Workers: c.workers})
			defer e.Close()
			s := newSys(c.nx, c.ny, e)
			defer s.Release(e)
			rng := rand.New(rand.NewSource(5))
			for i := range s.Total {
				s.Total[i] = rng.Float64()
			}
			e.Reset()
			energy := s.SolvePoisson(e)
			st := e.Stats()
			if c.oneLaunch {
				if st.Launches != 1 || st.PerOp["poisson.solve"].Launches != 1 {
					t.Fatalf("%d launches, want one poisson.solve: %v", st.Launches, st.PerOp)
				}
			} else {
				for _, op := range passes {
					if st.PerOp[op].Launches != 1 {
						t.Errorf("%s: %d launches, want 1", op, st.PerOp[op].Launches)
					}
				}
				if st.Launches != int64(len(passes)) {
					t.Errorf("%d launches, want the %d passes: %v", st.Launches, len(passes), st.PerOp)
				}
				return
			}

			plan := dct.NewPlan(c.nx, c.ny)
			defer plan.Release(e)
			n := c.nx * c.ny
			coef, ex, ey := make([]float64, n), make([]float64, n), make([]float64, n)
			plan.DCT2(s.Total, coef, e)
			want := 0.5 * spectralScale(s, coef, 0, c.ny)
			plan.EvalPotentialField(coef, s.wu, s.wv, nil, ex, ey, e)
			if math.Float64bits(energy) != math.Float64bits(want) || want == 0 {
				t.Errorf("energy %v, passes %v", energy, want)
			}
			for i := range ex {
				if math.Float64bits(s.Ex[i]) != math.Float64bits(ex[i]) || math.Float64bits(s.Ey[i]) != math.Float64bits(ey[i]) {
					t.Fatalf("bin %d: (%v, %v), passes (%v, %v)", i, s.Ex[i], s.Ey[i], ex[i], ey[i])
				}
			}
		})
	}
}

// The field must push a probe cell away from a dense cluster.
func TestFieldPushesAwayFromCluster(t *testing.T) {
	e := eng()
	s := newSys(32, 32, e)
	d := netlist.NewDesign("cluster", s.Grid.Region)
	// Dense cluster near (8, 16).
	for i := 0; i < 20; i++ {
		d.AddCell("c", 2, 2, 8, 16, netlist.Movable)
	}
	// Probe to the right of the cluster.
	probe := d.AddCell("p", 1, 1, 12, 16, netlist.Movable)
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
	s.ScatterDensity(e, d, nil, nil, MaskMovable, s.Total, "s")
	s.SolvePoisson(e)
	gx := make([]float64, d.NumCells())
	gy := make([]float64, d.NumCells())
	s.GatherField(e, d, nil, nil, MaskMovable, gx, gy)
	// Minimizing energy moves along -grad; the probe should be pushed in
	// +x (away from the cluster), so gradX must be negative.
	if gx[probe] >= 0 {
		t.Errorf("probe gradX = %v, want negative (push right)", gx[probe])
	}
	if math.Abs(gy[probe]) > math.Abs(gx[probe])*0.5 {
		t.Errorf("probe gradY = %v unexpectedly large vs gradX %v", gy[probe], gx[probe])
	}
}

func TestGatherFieldMaskZeroesOthers(t *testing.T) {
	e := eng()
	s := newSys(8, 8, e)
	d := netlist.NewDesign("gm", s.Grid.Region)
	d.AddCell("m", 1, 1, 2, 2, netlist.Movable)
	fixed := d.AddCell("f", 1, 1, 6, 6, netlist.Fixed)
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
	s.ScatterDensity(e, d, nil, nil, MaskAll, s.Total, "s")
	s.SolvePoisson(e)
	gx := []float64{99, 99}
	gy := []float64{99, 99}
	s.GatherField(e, d, nil, nil, MaskMovable, gx, gy)
	if gx[fixed] != 0 || gy[fixed] != 0 {
		t.Errorf("fixed cell grad = %v,%v, want zero", gx[fixed], gy[fixed])
	}
}

func TestOverflow(t *testing.T) {
	e := eng()
	s := newSys(4, 4, e) // bin area 1
	d := netlist.NewDesign("ovfl", s.Grid.Region)
	d.AddCell("m", 2, 2, 2, 2, netlist.Movable) // movable area 4
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
	dens := make([]float64, 16)
	dens[0] = 1.5
	dens[1] = 0.9
	dens[2] = 2.0
	// target 1.0: overflow area = 0.5 + 0 + 1.0 = 1.5; movable area 4.
	got := s.Overflow(e, d, dens, 1.0)
	if math.Abs(got-1.5/4) > 1e-12 {
		t.Errorf("OVFL = %v, want %v", got, 1.5/4)
	}
}

func TestOverflowNoMovable(t *testing.T) {
	e := eng()
	s := newSys(4, 4, e)
	d := netlist.NewDesign("empty", s.Grid.Region)
	d.AddCell("f", 1, 1, 2, 2, netlist.Fixed)
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
	if got := s.Overflow(e, d, make([]float64, 16), 1.0); got != 0 {
		t.Errorf("OVFL with no movable = %v", got)
	}
}

// Operator extraction accounting: the OE composition (DensityMaps: one
// scatter into D and Dfl, one reduce) must not scatter the same cells
// twice, while the naive path does.
func TestOperatorExtractionSavesScatterWork(t *testing.T) {
	mk := func() (*kernel.Engine, *System, *netlist.Design) {
		e := kernel.New(kernel.Options{Workers: 2})
		s := newSys(16, 16, e)
		d := netlist.NewDesign("oe", s.Grid.Region)
		for i := 0; i < 50; i++ {
			d.AddCell("m", 1, 1, float64(1+i%14), float64(1+i/14), netlist.Movable)
		}
		if err := d.Finish(); err != nil {
			t.Fatal(err)
		}
		return e, s, d.WithFillers(0.9)
	}

	// OE path: D and Dfl in one scatter, one reduce for Total and OVFL
	// from D.
	e1, s1, d1 := mk()
	s1.DensityMaps(e1, d1, d1.CellX, d1.CellY, 0.9)

	// Naive path: total map in one scatter over all cells, then a second
	// full scatter of the non-filler cells just for OVFL.
	e2, s2, d2 := mk()
	s2.ScatterDensity(e2, d2, nil, nil, MaskAll, s2.Total, "density.all")
	s2.ScatterDensity(e2, d2, nil, nil, MaskMovable|MaskFixed, s2.D, "density.cells_again")
	s2.Overflow(e2, d2, s2.D, 0.9)

	// Both must produce the same Total map.
	for i := range s1.Total {
		if math.Abs(s1.Total[i]-s2.Total[i]) > 1e-12 {
			t.Fatalf("total maps disagree at %d: %v vs %v", i, s1.Total[i], s2.Total[i])
		}
	}
	// Compute time is too noisy on inputs this small to compare, so assert
	// on launch structure: the naive path scatters every non-filler cell in
	// two kernels, the OE path in one, beside the fillers.
	per2 := e2.Stats().PerOp
	if per2["density.all"].Launches != 1 || per2["density.cells_again"].Launches != 1 {
		t.Errorf("naive path missing its double scatter: %v", per2)
	}
	per1 := e1.Stats().PerOp
	if per1["density.scatter"].Launches != 1 || per1["density.maps"].Launches != 1 || e1.Stats().Launches != 2 {
		t.Errorf("OE path should scatter cells and fillers in one launch and reduce once: %v", per1)
	}
}

// oracleScatter is the rect-per-bin density scatter this package ran before
// the separable kernel — one geom.Rect per (cell, bin), its area taken by
// BinRect(ix, iy).Intersect(r).Area() — kept verbatim as the bit-identity reference,
// over the engine's own chunk bounds and merged in chunk order. T is the
// element type of the per-chunk maps (float32 on the reduced-precision
// backend).
func oracleScatter[T float32 | float64](e *kernel.Engine, s *System, d *netlist.Design, x, y []float64, mask KindMask, out []float64) {
	scratch := make([][]T, e.Chunks(d.NumCells()))
	for w := range scratch {
		scratch[w] = make([]T, s.Nx*s.Ny)
	}
	invBinArea := 1 / s.Grid.BinArea()
	used := e.LaunchChunks("oracle.scatter", d.NumCells(), func(w, lo, hi int) {
		buf := scratch[w]
		for c := lo; c < hi; c++ {
			if !mask.Has(d.CellKind[c]) {
				continue
			}
			r, scale := s.expandedRect(d, c, x[c], y[c])
			r = r.Intersect(s.Grid.Region)
			if r.Empty() {
				continue
			}
			x0, x1, y0, y1 := s.Grid.BinRange(r)
			for iy := y0; iy < y1; iy++ {
				for ix := x0; ix < x1; ix++ {
					ov := s.Grid.BinRect(ix, iy).Intersect(r).Area()
					if ov > 0 {
						buf[iy*s.Nx+ix] += T(ov * scale)
					}
				}
			}
		}
	})
	for b := range out {
		var sum float64
		for w := 0; w < used; w++ {
			sum += float64(scratch[w][b])
		}
		out[b] = sum * invBinArea
	}
}

// oracleGather is the rect-per-bin field gather, verbatim like
// oracleScatter; it reads the system's current Ex/Ey.
func oracleGather(e *kernel.Engine, s *System, d *netlist.Design, x, y []float64, mask KindMask, gradX, gradY []float64) {
	invBinArea := 1 / s.Grid.BinArea()
	e.Launch("oracle.gather", d.NumCells(), func(lo, hi int) {
		for c := lo; c < hi; c++ {
			if !mask.Has(d.CellKind[c]) {
				gradX[c], gradY[c] = 0, 0
				continue
			}
			r, scale := s.expandedRect(d, c, x[c], y[c])
			r = r.Intersect(s.Grid.Region)
			if r.Empty() {
				gradX[c], gradY[c] = 0, 0
				continue
			}
			x0, x1, y0, y1 := s.Grid.BinRange(r)
			var fx, fy float64
			for iy := y0; iy < y1; iy++ {
				for ix := x0; ix < x1; ix++ {
					ov := s.Grid.BinRect(ix, iy).Intersect(r).Area()
					if ov <= 0 {
						continue
					}
					q := ov * scale * invBinArea // charge share in bin units
					fx += q * s.Ex[iy*s.Nx+ix]
					fy += q * s.Ey[iy*s.Nx+ix]
				}
			}
			gradX[c] = -fx / s.Grid.Dx
			gradY[c] = -fy / s.Grid.Dy
		}
	})
}

// oracleDesign builds n cells of all three kinds over grid g: sub-bin cells
// (expanded and scaled), cells of a few bins, macros up to three quarters
// of the region (96 bin columns on a 128-wide grid), cells with edges
// exactly on bin boundaries, cells straddling the region boundary, cells
// fully outside it, and zero-width / zero-height cells.
func oracleDesign(tb testing.TB, g geom.Grid, n int, seed int64) *netlist.Design {
	tb.Helper()
	rng := rand.New(rand.NewSource(seed))
	d := netlist.NewDesign("oracle", g.Region)
	rw, rh := g.Region.W(), g.Region.H()
	for i := 0; i < n; i++ {
		w, h := g.Dx*(0.05+0.9*rng.Float64()), g.Dy*(0.05+0.9*rng.Float64())
		x := g.Region.Lx + rw*rng.Float64()
		y := g.Region.Ly + rh*rng.Float64()
		switch rng.Intn(10) {
		case 0, 1, 2: // a few bins
			w, h = g.Dx*(1+3*rng.Float64()), g.Dy*(1+3*rng.Float64())
		case 3: // macro
			if rng.Intn(6) == 0 {
				w, h = rw*(0.5+0.25*rng.Float64()), rh*(0.5+0.25*rng.Float64())
			} else {
				w, h = g.Dx*(4+8*rng.Float64()), g.Dy*(4+8*rng.Float64())
			}
		case 4: // bin-aligned edges
			w, h = g.Dx*float64(1+rng.Intn(3)), g.Dy*float64(1+rng.Intn(3))
			x = g.Region.Lx + g.Dx*float64(rng.Intn(g.Nx)) + w/2
			y = g.Region.Ly + g.Dy*float64(rng.Intn(g.Ny)) + h/2
		case 5: // straddling the boundary
			w, h = g.Dx*(0.2+4*rng.Float64()), g.Dy*(0.2+4*rng.Float64())
			x = []float64{g.Region.Lx, g.Region.Hx}[rng.Intn(2)] + w*(rng.Float64()-0.5)
			if rng.Intn(2) == 0 {
				y = []float64{g.Region.Ly, g.Region.Hy}[rng.Intn(2)] + h*(rng.Float64()-0.5)
			}
		case 6: // fully outside (or just touching)
			x = g.Region.Hx + w/2 + g.Dx*float64(rng.Intn(3))
			if rng.Intn(2) == 0 {
				x, y = g.Region.Lx+rw*rng.Float64(), g.Region.Ly-h/2-g.Dy*float64(rng.Intn(3))
			}
		case 7: // zero area
			switch rng.Intn(3) {
			case 0:
				w = 0
			case 1:
				h = 0
			default:
				w, h = 0, 0
			}
		}
		d.AddCell("c", w, h, x, y, netlist.CellKind(rng.Intn(3)))
	}
	if err := d.Finish(); err != nil {
		tb.Fatal(err)
	}
	return d
}

// TestScatterGatherBitIdenticalToRectOracle pins the separable scatter and
// gather to the rect-per-bin oracle bit for bit — every bin of the density
// map, then (after a solve on it) every cell's gradient — on both element
// types of the per-chunk maps.
func TestScatterGatherBitIdenticalToRectOracle(t *testing.T) {
	const cells = 5000 // >= the engine's parallel threshold: with 2 workers both chunks run
	regions := []geom.Rect{
		{Hx: 16, Hy: 16},
		{Lx: -3.5, Ly: 10.25, Hx: 997.2, Hy: 311.9},
		{Lx: 459, Ly: 459, Hx: 11151, Hy: 11139},
	}
	for gi, dim := range [][2]int{{16, 16}, {64, 32}, {128, 128}} {
		grid := geom.NewGrid(regions[gi], dim[0], dim[1])
		d := oracleDesign(t, grid, cells, int64(gi+1))
		for _, workers := range []int{1, 2} {
			for _, mask := range []KindMask{MaskMovable | MaskFixed, MaskAll, MaskPlaceable} {
				for _, be := range []backend.Backend{nil, backend.Float32()} {
					name := fmt.Sprintf("%dx%d/workers=%d/mask=%03b/f32=%v", dim[0], dim[1], workers, mask, be != nil)
					t.Run(name, func(t *testing.T) {
						e := kernel.New(kernel.Options{Workers: workers})
						defer e.Close()
						s := NewSystemOn(grid, e, be)
						defer s.Release(e)
						want := make([]float64, grid.NumBins())
						if be == nil {
							oracleScatter[float64](e, s, d, d.CellX, d.CellY, mask, want)
						} else {
							oracleScatter[float32](e, s, d, d.CellX, d.CellY, mask, want)
						}
						s.ScatterDensity(e, d, nil, nil, mask, s.Total, "density.total")
						var mass float64
						for b := range want {
							if math.Float64bits(s.Total[b]) != math.Float64bits(want[b]) {
								t.Fatalf("bin %d: density %v, oracle %v", b, s.Total[b], want[b])
							}
							mass += want[b]
						}
						if mass == 0 {
							t.Fatal("empty density map: the case tests nothing")
						}
						s.SolvePoisson(e)
						n := d.NumCells()
						gx, gy := make([]float64, n), make([]float64, n)
						wx, wy := make([]float64, n), make([]float64, n)
						oracleGather(e, s, d, d.CellX, d.CellY, mask, wx, wy)
						s.GatherField(e, d, nil, nil, mask, gx, gy)
						var moved int
						for c := 0; c < n; c++ {
							if math.Float64bits(gx[c]) != math.Float64bits(wx[c]) || math.Float64bits(gy[c]) != math.Float64bits(wy[c]) {
								t.Fatalf("cell %d: gradient (%v, %v), oracle (%v, %v)", c, gx[c], gy[c], wx[c], wy[c])
							}
							if wx[c] != 0 || wy[c] != 0 {
								moved++
							}
						}
						if moved < n/4 {
							t.Fatalf("only %d of %d cells feel a field: the case tests little", moved, n)
						}
					})
				}
			}
		}
	}
}

// TestSystemDrivenByWiderEngine: a system's per-chunk scratch is grown
// from the engine that drives it, not fixed by the one it was built on. A
// system built on a 1-worker engine and driven by a 2- or 8-worker engine
// gives D, Total, Ex, Ey, the energy and the gathered gradients of a system
// built on the driving engine bit for bit, on both backends, as are the
// filler map and overflow of DensityMaps, and Release returns the driving
// engine's arena, filler maps included, to its pre-system bytes.
func TestSystemDrivenByWiderEngine(t *testing.T) {
	narrow := kernel.New(kernel.Options{Workers: 1})
	defer narrow.Close()
	grid := geom.NewGrid(geom.Rect{Hx: 16, Hy: 16}, 16, 16)
	d := oracleDesign(t, grid, 3000, 9) // >= the parallel threshold: every chunk runs
	n := d.NumCells()
	type run struct {
		d, dfl, total, ex, ey, gx, gy []float64
		energy, ovfl                  float64
	}
	drive := func(s *System, e *kernel.Engine) run {
		ovfl := s.DensityMaps(e, d, d.CellX, d.CellY, 0.5)
		dfl := append([]float64(nil), s.Dfl...)
		s.ScatterDensity(e, d, nil, nil, MaskMovable|MaskFixed, s.D, "density.cells")
		s.ScatterDensity(e, d, nil, nil, MaskAll, s.Total, "density.total")
		r := run{energy: s.SolvePoisson(e), ovfl: ovfl, dfl: dfl, gx: make([]float64, n), gy: make([]float64, n)}
		s.GatherField(e, d, nil, nil, MaskPlaceable, r.gx, r.gy)
		r.d, r.total = append([]float64(nil), s.D...), append([]float64(nil), s.Total...)
		r.ex, r.ey = append([]float64(nil), s.Ex...), append([]float64(nil), s.Ey...)
		return r
	}
	for _, workers := range []int{2, 8} {
		for _, be := range []backend.Backend{nil, backend.Float32()} {
			t.Run(fmt.Sprintf("workers=%d/f32=%v", workers, be != nil), func(t *testing.T) {
				e := kernel.New(kernel.Options{Workers: workers})
				defer e.Close()
				if e.Chunks(n) < 2 {
					t.Fatalf("Chunks(%d) = %d: the case tests nothing", n, e.Chunks(n))
				}
				// A buffer held across the test keeps the baseline above
				// zero, so returning more than was checked out shows.
				hold := e.Alloc(1000)
				defer e.Free(hold)
				base := e.ArenaStats().InUse

				s := NewSystemOn(grid, narrow, be)
				ref := NewSystemOn(grid, e, be)
				got, want := drive(s, e), drive(ref, e)
				if math.Float64bits(got.energy) != math.Float64bits(want.energy) {
					t.Errorf("energy %v, system built on the driving engine %v", got.energy, want.energy)
				}
				if math.Float64bits(got.ovfl) != math.Float64bits(want.ovfl) {
					t.Errorf("overflow %v, system built on the driving engine %v", got.ovfl, want.ovfl)
				}
				for name, pair := range map[string][2][]float64{
					"D": {got.d, want.d}, "Dfl": {got.dfl, want.dfl}, "Total": {got.total, want.total},
					"Ex": {got.ex, want.ex}, "Ey": {got.ey, want.ey},
					"gradX": {got.gx, want.gx}, "gradY": {got.gy, want.gy},
				} {
					for i := range pair[1] {
						if math.Float64bits(pair[0][i]) != math.Float64bits(pair[1][i]) {
							t.Fatalf("%s[%d] = %v, system built on the driving engine %v", name, i, pair[0][i], pair[1][i])
						}
					}
				}
				if want.energy == 0 {
					t.Fatal("zero energy: the case tests little")
				}

				s.Release(e)
				ref.Release(e)
				if got := e.ArenaStats().InUse; got != base {
					t.Errorf("InUse after Release = %d, want the pre-system %d", got, base)
				}
			})
		}
	}
}

func BenchmarkScatterAndSolve(b *testing.B) {
	e := eng()
	s := newSys(128, 128, e)
	d := netlist.NewDesign("bench", s.Grid.Region)
	for i := 0; i < 20000; i++ {
		d.AddCell("m", 0.9, 0.9, float64(i%128), float64((i/128)%128), netlist.Movable)
	}
	if err := d.Finish(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.ScatterDensity(e, d, nil, nil, MaskMovable, s.Total, "s")
		s.SolvePoisson(e)
	}
}

// BenchmarkPoissonSolve: one warm SolvePoisson from the gp-small grid (64)
// to the gp-spectral grid (512), on one worker and on the harness's
// 2-worker engine. The w2/w1 ratio per grid is the table the line-pass
// fan-out threshold (kernel.minLineWork) rests on.
func BenchmarkPoissonSolve(b *testing.B) {
	for _, n := range []int{64, 128, 256, 512} {
		for _, workers := range []int{1, 2} {
			b.Run(fmt.Sprintf("%d/w%d", n, workers), func(b *testing.B) {
				e := kernel.New(kernel.Options{Workers: workers})
				defer e.Close()
				s := newSys(n, n, e)
				defer s.Release(e)
				rng := rand.New(rand.NewSource(11))
				for i := range s.Total {
					s.Total[i] = rng.Float64()
				}
				s.SolvePoisson(e)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					s.SolvePoisson(e)
				}
			})
		}
	}
}

// benchShapes are the two shapes of the repository benchmark on which
// scatter and gather matter: gp-small (856 cells; 64 is the grid the
// placer's automatic rule picks for its 1.5k augmented cells) and gp-cells
// (53k cells on 64x64).
var benchShapes = []struct {
	name  string
	scale float64
	grid  int
}{
	{"gp-small", 0.004, 64},
	{"gp-cells", 0.25, 64},
}

// benchShape builds the filler-augmented adaptec1 design of shape i, its
// field system and a 2-worker engine (the harness's engine setting).
func benchShape(b *testing.B, i int) (*kernel.Engine, *System, *netlist.Design) {
	b.Helper()
	sh := benchShapes[i]
	spec, ok := benchgen.FindSpec("adaptec1")
	if !ok {
		b.Fatal("no adaptec1 spec")
	}
	d := benchgen.Generate(spec, sh.scale, 1).WithFillers(1.0)
	e := kernel.New(kernel.Options{Workers: 2})
	b.Cleanup(e.Close)
	return e, NewSystem(geom.NewGrid(d.Region, sh.grid, sh.grid), e), d
}

func BenchmarkScatter(b *testing.B) {
	for i, sh := range benchShapes {
		b.Run(sh.name, func(b *testing.B) {
			e, s, d := benchShape(b, i)
			s.ScatterDensity(e, d, nil, nil, MaskAll, s.Total, "density.total") // grows the per-chunk maps
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.ScatterDensity(e, d, nil, nil, MaskAll, s.Total, "density.total")
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(d.NumCells()), "ns/cell")
		})
	}
}

func BenchmarkGather(b *testing.B) {
	for i, sh := range benchShapes {
		b.Run(sh.name, func(b *testing.B) {
			e, s, d := benchShape(b, i)
			s.ScatterDensity(e, d, nil, nil, MaskAll, s.Total, "density.total")
			s.SolvePoisson(e)
			gx, gy := make([]float64, d.NumCells()), make([]float64, d.NumCells())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.GatherField(e, d, nil, nil, MaskPlaceable, gx, gy)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(d.NumCells()), "ns/cell")
		})
	}
}
