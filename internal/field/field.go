// Package field implements the electrostatic density system of the placer
// (Eq. 5, §3.1.2): cells are charges, the bin-wise density map is the
// charge distribution rho, and Poisson's equation with Neumann boundary
// conditions is solved spectrally (DCT) for the potential psi and the
// electric field E = -grad(psi). The field, gathered back onto cells,
// is the density gradient of the objective.
//
// The package exposes the individual operators (density scatter, Poisson
// solve, field gather, overflow ratio) so the placer can compose them
// either with the paper's operator extraction (DensityMaps: the cell
// density map D is computed once and reused for the total map
// D~ = D + D_fl and for OVFL, in one reduce over bins) or naively
// (recompute D for OVFL), which is the OE ablation.
//
// Internally the electrostatic system lives in bin units (the region maps
// to [0,Nx) x [0,Ny)); GatherField converts gradients back to design units.
//
// All kernel bodies are built once at NewSystem and reused every launch,
// with per-call parameters staged in System fields: per-iteration operator
// calls are allocation-free (closure capture would otherwise heap-allocate
// on every call). A System is therefore single-flight: drive it from one
// placement loop at a time.
package field

import (
	"fmt"
	"math"

	"xplace/internal/backend"
	"xplace/internal/dct"
	"xplace/internal/geom"
	"xplace/internal/kernel"
	"xplace/internal/netlist"
)

// KindMask selects which cell kinds participate in a scatter.
type KindMask uint8

// Kind masks for ScatterDensity.
const (
	MaskMovable KindMask = 1 << netlist.Movable
	MaskFixed   KindMask = 1 << netlist.Fixed
	MaskFiller  KindMask = 1 << netlist.Filler
	// MaskPlaceable covers everything the electrostatic system moves.
	MaskPlaceable = MaskMovable | MaskFiller
	// MaskAll covers every cell.
	MaskAll = MaskMovable | MaskFixed | MaskFiller
)

// Has reports whether kind k is selected.
func (m KindMask) Has(k netlist.CellKind) bool { return m&(1<<k) != 0 }

// System holds the grid, spectral plan and all bin-sized buffers of the
// electrostatic model. Create one per (design, grid) pair and reuse it
// every iteration; all buffers are preallocated.
type System struct {
	Grid geom.Grid
	Nx   int
	Ny   int

	// Density maps (bin-major, f[y*Nx+x]), in occupancy units (area
	// covered / bin area).
	D     []float64 // movable + fixed cell density (Eq. 8)
	Dfl   []float64 // filler density D_fl
	Total []float64 // D~ = D + D_fl (Eq. 10)

	// Electrostatic field of Total (the potential psi itself is never
	// materialized: the gradient needs only E, the energy comes from the
	// spectrum).
	Ex []float64 // field x = -dPsi/dx (bin units)
	Ey []float64 // field y

	plan    *dct.Plan
	coef    []float64   // DCT coefficients scratch
	wu, wv  []float64   // frequencies pi*u/Nx, pi*v/Ny
	scratch [][]float64 // per-chunk scatter maps (reference backend)
	fillers [][]float64 // per-chunk filler maps of DensityMaps (reference backend)
	spanX   [][]float64 // per-chunk bin-width scratch of scatter and gather (Nx each)

	// Reduced-precision path (nil/unused on the reference backend). The
	// public maps stay []float64 — the backend element type is confined to
	// the solver internals, with registry cvt.* bodies converting at the
	// boundary — so callers are backend-agnostic.
	be        backend.Backend
	plan32    *dct.Plan32
	total32   []float32 // Total converted across the boundary
	coef32    []float32 // spectral coefficients
	ex32      []float32 // solver outputs before the store conversion
	ey32      []float32
	scratch32 [][]float32 // per-chunk scatter maps (f32 halves the traffic)
	fillers32 [][]float32 // per-chunk filler maps of DensityMaps

	cvtLd, cvtSt         backend.VecBody
	cvtLdBody, cvtStBody func(lo, hi int)

	// Staged parameters for the persistent kernel bodies below. Set by the
	// exported methods immediately before launching; never read outside a
	// launch.
	scD          *netlist.Design
	scX, scY     []float64
	scMask       KindMask
	scOut        []float64
	scUsed       int
	gaD          *netlist.Design
	gaX, gaY     []float64
	gaMask       KindMask
	gaGX, gaGY   []float64
	ovDens       []float64
	ovTarget     float64
	mergeNames   map[string]string // scatter name -> name+".merge" (interned)
	scatterBody  func(w, lo, hi int)
	splitBody    func(w, lo, hi int) // DensityMaps' scatter into cell and filler maps
	mergeBody    func(lo, hi int)
	mapsBody     func(lo, hi int) float64
	spectralBody func(lo, hi int) float64
	gatherBody   func(w, lo, hi int)
	ovBody       func(lo, hi int) float64
}

func sumCombine(a, b float64) float64 { return a + b }

// NewSystem creates an electrostatic system on grid for engine e, using the
// reference (float64) backend. Grid dimensions must be powers of two. Any
// engine may drive the system: its per-chunk scratch is checked out of the
// driving engine's arena, sized by that engine's chunk count.
func NewSystem(grid geom.Grid, e *kernel.Engine) *System {
	return NewSystemOn(grid, e, nil)
}

// NewSystemOn creates an electrostatic system whose solver internals use
// compute backend b (nil means the reference backend, identical to
// NewSystem). The public density and field maps are []float64 regardless:
// the element type crosses no API boundary.
func NewSystemOn(grid geom.Grid, e *kernel.Engine, b backend.Backend) *System {
	nx, ny := grid.Nx, grid.Ny
	s := &System{
		Grid:  grid,
		Nx:    nx,
		Ny:    ny,
		D:     make([]float64, nx*ny),
		Dfl:   make([]float64, nx*ny),
		Total: make([]float64, nx*ny),
		Ex:    make([]float64, nx*ny),
		Ey:    make([]float64, nx*ny),
		wu:    make([]float64, nx),
		wv:    make([]float64, ny),

		mergeNames: make(map[string]string),
	}
	for u := 0; u < nx; u++ {
		s.wu[u] = math.Pi * float64(u) / float64(nx)
	}
	for v := 0; v < ny; v++ {
		s.wv[v] = math.Pi * float64(v) / float64(ny)
	}
	if backend.IsReference(b) {
		s.plan = dct.NewPlan(nx, ny)
		s.coef = make([]float64, nx*ny)
	} else {
		s.be = b
		s.plan32 = dct.NewPlan32(nx, ny)
		s.cvtLd = b.Kernels().Make("cvt.load")
		s.cvtSt = b.Kernels().Make("cvt.store")
		s.cvtLdBody = func(lo, hi int) { s.cvtLd.Run(lo, hi) }
		s.cvtStBody = func(lo, hi int) { s.cvtSt.Run(lo, hi) }
	}
	s.buildBodies()
	return s
}

// Backend returns the system's compute backend (nil for the reference).
func (s *System) Backend() backend.Backend { return s.be }

// Release returns the per-chunk scatter and filler maps and span rows, the
// spectral plan's arena-backed scratch and, on a reduced-precision backend,
// the solver's element buffers to engine e.
// Call it when the system's owner (a placement job) is done — including on
// cancellation — so the engine arena's in-use bytes return to their
// pre-job baseline. Idempotent; the system stays usable (the next solve
// re-checks the scratch out).
func (s *System) Release(e *kernel.Engine) {
	for _, b := range s.spanX {
		e.Free(b)
	}
	for _, maps := range [...][][]float64{s.scratch, s.fillers} {
		for _, b := range maps {
			e.Free(b)
		}
	}
	for _, maps := range [...][][]float32{s.scratch32, s.fillers32} {
		for _, b := range maps {
			e.Free32(b)
		}
	}
	s.spanX, s.scratch, s.scratch32, s.fillers, s.fillers32 = nil, nil, nil, nil, nil
	if s.plan != nil {
		s.plan.Release(e)
	}
	if s.plan32 != nil {
		s.plan32.Release(e)
	}
	if s.total32 != nil {
		e.Free32(s.total32)
		e.Free32(s.coef32)
		e.Free32(s.ex32)
		e.Free32(s.ey32)
		s.total32, s.coef32, s.ex32, s.ey32 = nil, nil, nil, nil
	}
}

// ensure32 checks the reduced-precision solve buffers out of e's arena.
func (s *System) ensure32(e *kernel.Engine) {
	if s.total32 != nil {
		return
	}
	n := s.Nx * s.Ny
	s.total32 = e.Alloc32(n)
	s.coef32 = e.Alloc32(n)
	s.ex32 = e.Alloc32(n)
	s.ey32 = e.Alloc32(n)
}

// grow checks per-chunk scratch out of e's arena, on the calling goroutine,
// until there is a span row and a scatter map of the backend's element type
// for each of chunks chunks, and with fillers a filler map as well. Nothing
// is checked out once they are there, which keeps steady-state launches
// allocation-free.
func (s *System) grow(e *kernel.Engine, chunks int, fillers bool) {
	n := s.Nx * s.Ny
	for len(s.spanX) < chunks {
		s.spanX = append(s.spanX, e.Alloc(s.Nx))
		if s.be == nil {
			s.scratch = append(s.scratch, e.Alloc(n))
		} else {
			s.scratch32 = append(s.scratch32, e.Alloc32(n))
		}
	}
	for fillers && len(s.fillers)+len(s.fillers32) < chunks {
		if s.be == nil {
			s.fillers = append(s.fillers, e.Alloc(n))
		} else {
			s.fillers32 = append(s.fillers32, e.Alloc32(n))
		}
	}
}

// binSpanX fills wx[i] with the width of the overlap of r with bin column
// x0+i for the columns [x0, x1) and returns wx cut to that length. A width
// is <= 0 where they do not overlap. The overlap of r with bin (ix, iy) is
// separable — width(ix) * height(iy) — so a cell computes each width once
// instead of once per row; the operands and their order are those of
// Grid.BinRect(ix, iy).Intersect(r) (the builtin min/max have math.Min/Max
// semantics), which keeps every sum bit-identical to the per-bin rectangle
// form.
func (s *System) binSpanX(wx []float64, r geom.Rect, x0, x1 int) []float64 {
	wx = wx[:x1-x0]
	for i := range wx {
		bx := s.Grid.Region.Lx + float64(x0+i)*s.Grid.Dx
		wx[i] = min(bx+s.Grid.Dx, r.Hx) - max(bx, r.Lx)
	}
	return wx
}

// binSpanY returns the height of the overlap of r with bin row iy (<= 0
// where they do not overlap).
func (s *System) binSpanY(r geom.Rect, iy int) float64 {
	by := s.Grid.Region.Ly + float64(iy)*s.Grid.Dy
	return min(by+s.Grid.Dy, r.Hy) - max(by, r.Ly)
}

// scatterCell accumulates into buf cell c's overlap area x density scale
// per bin, at the staged positions. wx is the chunk's bin-width scratch
// (length Nx). It is the one per-cell stencil of both scatter bodies.
func scatterCell[T float32 | float64](s *System, buf []T, wx []float64, c int) {
	r, scale := s.expandedRect(s.scD, c, s.scX[c], s.scY[c])
	r = r.Intersect(s.Grid.Region)
	if r.Empty() {
		return
	}
	nx := s.Nx
	x0, x1, y0, y1 := s.Grid.BinRange(r)
	w := s.binSpanX(wx, r, x0, x1)
	for iy := y0; iy < y1; iy++ {
		h := s.binSpanY(r, iy)
		if h <= 0 {
			continue
		}
		row := buf[iy*nx+x0 : iy*nx+x1][:len(w)]
		for i, wi := range w {
			if ov := wi * h; ov > 0 {
				row[i] += T(ov * scale)
			}
		}
	}
}

// scatterInto zeroes buf and accumulates into it every cell of [lo, hi)
// the staged mask selects.
func scatterInto[T float32 | float64](s *System, buf []T, wx []float64, lo, hi int) {
	kind, mask := s.scD.CellKind, s.scMask
	clear(buf)
	for c := lo; c < hi; c++ {
		if mask.Has(kind[c]) {
			scatterCell(s, buf, wx, c)
		}
	}
}

// scatterSplit zeroes cells and fillers and accumulates every cell of
// [lo, hi) into one of them by kind: fillers into fillers, movable and
// fixed cells into cells. Each map receives the adds, in the order, that
// scatterInto with MaskFiller or MaskMovable|MaskFixed would give it.
func scatterSplit[T float32 | float64](s *System, cells, fillers []T, wx []float64, lo, hi int) {
	kind := s.scD.CellKind
	clear(cells)
	clear(fillers)
	for c := lo; c < hi; c++ {
		if kind[c] == netlist.Filler {
			scatterCell(s, fillers, wx, c)
		} else {
			scatterCell(s, cells, wx, c)
		}
	}
}

// mergeFrom sums the first s.scUsed per-chunk maps over bins [lo, hi) into
// the staged output, in occupancy units. The sum is float64 whatever the
// maps' element type.
func mergeFrom[T float32 | float64](s *System, maps [][]T, invBinArea float64, lo, hi int) {
	out, maps := s.scOut, maps[:s.scUsed]
	for b := lo; b < hi; b++ {
		var sum float64
		for _, m := range maps {
			sum += float64(m[b])
		}
		out[b] = sum * invBinArea
	}
}

// mapsFrom is the density-map reduce of DensityMaps over bins [lo, hi): D
// and Dfl are the sums of the first s.scUsed cell and filler maps, as
// mergeFrom writes them, Total is D + Dfl, and the return value is the
// bins' overflow area of D above the staged target.
func mapsFrom[T float32 | float64](s *System, cells, fillers [][]T, invBinArea, binArea float64, lo, hi int) float64 {
	cells, fillers = cells[:s.scUsed], fillers[:s.scUsed]
	target := s.ovTarget
	var over float64
	for b := lo; b < hi; b++ {
		var sum, sumFl float64
		for _, m := range cells {
			sum += float64(m[b])
		}
		for _, m := range fillers {
			sumFl += float64(m[b])
		}
		dens, densFl := sum*invBinArea, sumFl*invBinArea
		s.D[b], s.Dfl[b], s.Total[b] = dens, densFl, dens+densFl
		if ex := dens - target; ex > 0 {
			over += ex * binArea
		}
	}
	return over
}

// spectralScale turns the raw DCT-II coefficients c of Total in rows
// [lo, hi) into the potential's series coefficients a = c * norm / (wu^2 +
// wv^2) in place (the DC term is dropped: the density mean exerts no force),
// and returns those rows' share of sum(a * c). By Parseval that sum is
// sum(Total * psi) — the energy without evaluating psi. The arithmetic is
// float64 whatever the element type; only the stored coefficient is T.
func spectralScale[T float32 | float64](s *System, coef []T, lo, hi int) float64 {
	nx, ny := s.Nx, s.Ny
	var sum float64
	for v := lo; v < hi; v++ {
		fv := 2 / float64(ny)
		if v == 0 {
			fv = 1 / float64(ny)
		}
		wv2 := s.wv[v] * s.wv[v]
		for u := 0; u < nx; u++ {
			fu := 2 / float64(nx)
			if u == 0 {
				fu = 1 / float64(nx)
			}
			idx := v*nx + u
			if u == 0 && v == 0 {
				coef[idx] = 0
				continue
			}
			c := float64(coef[idx])
			a := c * (fu * fv / (s.wu[u]*s.wu[u] + wv2))
			coef[idx] = T(a)
			sum += a * c
		}
	}
	return sum
}

// buildBodies constructs the persistent kernel bodies once. Each reads its
// parameters from the staged s.* fields at execution time.
func (s *System) buildBodies() {
	nx := s.Nx
	invBinArea := 1 / s.Grid.BinArea()
	binArea := s.Grid.BinArea()
	if s.be == nil {
		s.scatterBody = func(w, lo, hi int) { scatterInto(s, s.scratch[w], s.spanX[w], lo, hi) }
		s.splitBody = func(w, lo, hi int) { scatterSplit(s, s.scratch[w], s.fillers[w], s.spanX[w], lo, hi) }
		s.mergeBody = func(lo, hi int) { mergeFrom(s, s.scratch, invBinArea, lo, hi) }
		s.mapsBody = func(lo, hi int) float64 { return mapsFrom(s, s.scratch, s.fillers, invBinArea, binArea, lo, hi) }
		s.spectralBody = func(lo, hi int) float64 { return spectralScale(s, s.coef, lo, hi) }
	} else {
		// Reduced-precision scatter: the per-chunk private maps are
		// float32 (half the streamed bytes of the hot loop); the merge
		// accumulates in float64 and converts at the boundary store.
		s.scatterBody = func(w, lo, hi int) { scatterInto(s, s.scratch32[w], s.spanX[w], lo, hi) }
		s.splitBody = func(w, lo, hi int) { scatterSplit(s, s.scratch32[w], s.fillers32[w], s.spanX[w], lo, hi) }
		s.mergeBody = func(lo, hi int) { mergeFrom(s, s.scratch32, invBinArea, lo, hi) }
		s.mapsBody = func(lo, hi int) float64 { return mapsFrom(s, s.scratch32, s.fillers32, invBinArea, binArea, lo, hi) }
		s.spectralBody = func(lo, hi int) float64 { return spectralScale(s, s.coef32, lo, hi) }
	}
	s.gatherBody = func(w, lo, hi int) {
		d, x, y, mask := s.gaD, s.gaX, s.gaY, s.gaMask
		gradX, gradY := s.gaGX, s.gaGY
		wx := s.spanX[w]
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
			w := s.binSpanX(wx, r, x0, x1)
			var fx, fy float64
			for iy := y0; iy < y1; iy++ {
				h := s.binSpanY(r, iy)
				if h <= 0 {
					continue
				}
				ex := s.Ex[iy*nx+x0 : iy*nx+x1][:len(w)]
				ey := s.Ey[iy*nx+x0 : iy*nx+x1][:len(w)]
				for i, wi := range w {
					// Both tests: a NaN product of a width <= 0 must be
					// skipped as the empty intersection it is, a NaN
					// product of a positive width must propagate.
					ov := wi * h
					if wi <= 0 || ov <= 0 {
						continue
					}
					q := ov * scale * invBinArea // charge share in bin units
					fx += q * ex[i]
					fy += q * ey[i]
				}
			}
			// Energy gradient = -force; convert bin units -> design units.
			gradX[c] = -fx / s.Grid.Dx
			gradY[c] = -fy / s.Grid.Dy
		}
	}
	s.ovBody = func(lo, hi int) float64 {
		dens, target := s.ovDens, s.ovTarget
		var sum float64
		for b := lo; b < hi; b++ {
			if ex := dens[b] - target; ex > 0 {
				sum += ex * binArea
			}
		}
		return sum
	}
}

// expandedRect returns cell c's footprint (centered at x,y) expanded to at
// least one bin in each dimension — the ePlace local smoothing — together
// with the density scale that preserves its area.
func (s *System) expandedRect(d *netlist.Design, c int, x, y float64) (geom.Rect, float64) {
	w, h := d.CellW[c], d.CellH[c]
	ew, eh := w, h
	if ew < s.Grid.Dx {
		ew = s.Grid.Dx
	}
	if eh < s.Grid.Dy {
		eh = s.Grid.Dy
	}
	scale := 1.0
	if ew != w || eh != h {
		scale = (w * h) / (ew * eh)
	}
	return geom.Rect{Lx: x - ew/2, Ly: y - eh/2, Hx: x + ew/2, Hy: y + eh/2}, scale
}

// ScatterDensity accumulates the density of all cells selected by mask
// into out (occupancy units). One kernel for the parallel scatter into
// per-chunk private maps plus one merge kernel — the atomics-free
// accumulation the design doc calls out. The maps are sized by the chunk
// count of e, whichever engine built the system.
func (s *System) ScatterDensity(e *kernel.Engine, d *netlist.Design, x, y []float64, mask KindMask, out []float64, name string) {
	if len(out) != s.Nx*s.Ny {
		panic(fmt.Sprintf("field: out has %d bins, want %d", len(out), s.Nx*s.Ny))
	}
	if x == nil {
		x = d.CellX
	}
	if y == nil {
		y = d.CellY
	}
	mergeName, ok := s.mergeNames[name]
	if !ok {
		mergeName = name + ".merge"
		s.mergeNames[name] = mergeName
	}
	s.grow(e, e.Chunks(d.NumCells()), false)
	s.scD, s.scX, s.scY, s.scMask, s.scOut = d, x, y, mask, out
	s.scUsed = e.LaunchChunks(name, d.NumCells(), s.scatterBody)
	e.Launch(mergeName, s.Nx*s.Ny, s.mergeBody)
}

// DensityMaps is the extracted density step of Eq. 10 / Figure 2(a): one
// scatter ("density.scatter") sends each cell to one of two sets of
// per-chunk maps by kind — movable and fixed cells to the cell maps,
// fillers to the filler maps — then one reduce over bins ("density.maps")
// writes D, Dfl and Total = D + Dfl and sums D's overflow. It returns the
// overflow ratio OVFL of Eq. 7, as Overflow would from D. Every map and the
// ratio are the bits of two ScatterDensity calls, an elementwise add and
// Overflow: the scatter splits the cells, and the reduce the bins, as those
// launches did. It is ScatterMaps, launched alone, then ReduceMaps.
func (s *System) DensityMaps(e *kernel.Engine, d *netlist.Design, x, y []float64, targetDensity float64) float64 {
	part := s.ScatterMaps(e, d, x, y)
	return s.ReduceMaps(e, d, e.LaunchChunks(part.Name, part.N, part.Body), targetDensity)
}

// ScatterMaps stages the scatter of DensityMaps at (x, y) and returns it as
// a launch part over the cells, for the caller to launch on e, alone or
// beside another operator (kernel.Engine.LaunchPair); ReduceMaps finishes.
func (s *System) ScatterMaps(e *kernel.Engine, d *netlist.Design, x, y []float64) kernel.Part {
	n := d.NumCells()
	s.grow(e, e.Chunks(n), true)
	s.scD, s.scX, s.scY = d, x, y
	return kernel.Part{Name: "density.scatter", N: n, Body: s.splitBody}
}

// ReduceMaps is the reduce of DensityMaps over the maps of a ScatterMaps
// launch that ran scattered chunks: it writes D, Dfl and Total and returns
// the overflow ratio.
func (s *System) ReduceMaps(e *kernel.Engine, d *netlist.Design, scattered int, targetDensity float64) float64 {
	s.scUsed, s.ovTarget = scattered, targetDensity
	over := e.ParallelReduce("density.maps", s.Nx*s.Ny, 0, s.mapsBody, sumCombine)
	return overflowRatio(d, over)
}

// SolvePoisson solves Eq. 5 for s.Total: forward DCT, spectral division by
// (wu^2 + wv^2), and one batched evaluation of both field components
// (Ex = sum a*wu*sin*cos, Ey = sum a*wv*cos*sin) — the shared cos-x row
// transform and column gathers are computed once instead of per output.
// The potential psi is not evaluated: the returned system energy
// 0.5 * sum(rho * psi) — the density penalty D(p) of Eq. 3 — equals
// 0.5 * sum(a * c) over the spectrum (Parseval), accumulated by the
// spectral scale itself. On a grid kernel.OneBlock admits the whole solve
// is one launch ("poisson.solve", the same bits); larger grids launch each
// pass.
func (s *System) SolvePoisson(e *kernel.Engine) float64 {
	if s.plan32 != nil {
		return s.solvePoisson32(e)
	}
	if kernel.OneBlock(s.Nx, s.Ny) {
		return 0.5 * s.plan.SolvePoisson(s.Total, s.coef, s.wu, s.wv, s.Ex, s.Ey, s.spectralBody, e)
	}
	s.plan.DCT2(s.Total, s.coef, e)
	energy := e.ParallelReduce("poisson.spectral_scale", s.Ny, 0, s.spectralBody, sumCombine)
	s.plan.EvalPotentialField(s.coef, s.wu, s.wv, nil, s.Ex, s.Ey, e)
	return 0.5 * energy
}

// solvePoisson32 is the reduced-precision solve: the backend's cvt.*
// registry bodies convert Total in and ex/ey out at the boundary, and the
// transforms run on the float32 plan. The energy is summed in float64 from
// the float32 raw coefficients.
func (s *System) solvePoisson32(e *kernel.Engine) float64 {
	n := s.Nx * s.Ny
	s.ensure32(e)
	s.cvtLd.Bind(backend.WrapF32(s.total32), backend.WrapF64(s.Total), backend.Buf{}, 0)
	e.Launch("poisson.cvt_load", n, s.cvtLdBody)
	s.plan32.DCT2(s.total32, s.coef32, e)
	energy := e.ParallelReduce("poisson.spectral_scale", s.Ny, 0, s.spectralBody, sumCombine)
	s.plan32.EvalPotentialField(s.coef32, s.wu, s.wv, nil, s.ex32, s.ey32, e)
	for _, st := range [2]struct {
		dst []float64
		src []float32
	}{{s.Ex, s.ex32}, {s.Ey, s.ey32}} {
		s.cvtSt.Bind(backend.WrapF64(st.dst), backend.WrapF32(st.src), backend.Buf{}, 0)
		e.Launch("poisson.cvt_store", n, s.cvtStBody)
	}
	return 0.5 * energy
}

// GatherField writes the density gradient for every cell selected by mask
// into gradX/gradY (design units, indexed by cell; unselected cells get
// zero). The gradient of the energy with respect to a cell position is
// -q*E averaged over the cell footprint; q is the cell area in bin units.
func (s *System) GatherField(e *kernel.Engine, d *netlist.Design, x, y []float64, mask KindMask, gradX, gradY []float64) {
	if x == nil {
		x = d.CellX
	}
	if y == nil {
		y = d.CellY
	}
	s.grow(e, e.Chunks(d.NumCells()), false)
	s.gaD, s.gaX, s.gaY, s.gaMask, s.gaGX, s.gaGY = d, x, y, mask, gradX, gradY
	e.LaunchChunks("density.gather_field", d.NumCells(), s.gatherBody)
}

// Overflow computes the overflow ratio OVFL of Eq. 7 from the cell density
// map dens (occupancy units) as one kernel.
func (s *System) Overflow(e *kernel.Engine, d *netlist.Design, dens []float64, targetDensity float64) float64 {
	s.ovDens, s.ovTarget = dens, targetDensity
	over := e.ParallelReduce("density.ovfl", len(dens), 0, s.ovBody, sumCombine)
	return overflowRatio(d, over)
}

// overflowRatio divides an overflow area by d's movable area (0 without
// movable area).
func overflowRatio(d *netlist.Design, over float64) float64 {
	mov := d.MovableArea()
	if mov <= 0 {
		return 0
	}
	return over / mov
}
