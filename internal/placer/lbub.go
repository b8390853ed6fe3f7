package placer

import (
	"context"
	"fmt"
	"math"
	"sort"
	"time"

	"xplace/internal/geom"
	"xplace/internal/kernel"
	"xplace/internal/netlist"
	"xplace/internal/obs"
	"xplace/internal/optim"
)

// lbubEngine is the state of the LB/UB alternation strategy (Coloquinte's
// global-placement scheme; ROADMAP "robustness mode"). Each round runs
//
//	LB: a B2B net-model least-squares solve per axis — the wirelength
//	    lower bound — with anchor pseudo-nets pulling toward the last UB
//	    targets once the initial rounds are done;
//	UB: a rough legalization that assigns cells to density-grid bins
//	    under bin-capacity targets and packs them — the wirelength upper
//	    bound and the anchor targets of the next LB pass.
//
// The run stops when the relative gap (UB-LB)/UB falls below the preset's
// tolerance. Unlike the gradient flow there are no fillers, no spectral
// solve and no optimizer state: the strategy shares only the netlist, the
// bin grid and the CG machinery, which is exactly what makes it useful as
// an independent quality oracle and divergence fallback.
type lbubEngine struct {
	prm  LBUBParams
	grid geom.Grid

	// Cell-indexed positions over the (unaugmented) design. Fixed cells
	// keep their input coordinates in every slice.
	lbX, lbY   []float64 // lower-bound solution (net-model solve)
	ubX, ubY   []float64 // upper-bound solution (rough legalization)
	tgtX, tgtY []float64 // anchor targets = previous UB solution

	lbHPWL, ubHPWL float64
	gap            float64
	penalty        float64
	haveUB         bool

	movable  []int
	strength []float64 // per-cell anchor strength sqrt(area/avgArea)
	order    []int     // UB assignment order scratch
	cellBin  []int32   // UB bin assignment scratch

	binCap  []float64 // free capacity per bin (target density minus fixed)
	binUsed []float64
	binCurX []float64 // per-bin row-packing cursors
	binCurY []float64
	binRowH []float64

	qb optim.QuadBuilder
	cg optim.CG

	// Strategy-specific instruments (nil-safe like the placer's own).
	mSteps *obs.Counter
	gGap   *obs.Gauge
	gLB    *obs.Gauge
	gUB    *obs.Gauge
}

// newLBUBPlacer builds a Placer running the LB/UB alternation strategy.
// The gradient flow's machinery (fillers, field system, wirelength ops,
// scheduler, optimizer) is deliberately not constructed; the shared
// Placer surface (RunContext, Progress, Recorder, instruments, Close)
// behaves identically.
func newLBUBPlacer(d *netlist.Design, e *kernel.Engine, opts Options) (*Placer, error) {
	if opts.Resume != nil {
		return nil, fmt.Errorf("placer: strategy %v: %w", opts.Strategy, ErrStrategyNotResumable)
	}
	m := opts.GridSize
	if m == 0 {
		m = autoGridSize(d.NumCells())
	}
	if m&(m-1) != 0 || m <= 0 {
		return nil, fmt.Errorf("placer: grid size %d must be a power of two", m)
	}
	p := &Placer{
		opts: opts, eng: e, d: d, cells: d.NumCells(),
		rec: &Recorder{},
		ctx: context.Background(),
	}
	p.initLBUB(lbubGridSize(d, m, opts.TargetDensity))
	p.initInstruments()
	p.initLBUBInstruments()
	return p, nil
}

// lbubGridSize coarsens the requested density-grid dimension until one
// bin's capacity holds several average cells and at least the largest
// movable cell — the UB pass assigns whole cells to bins, so bins
// smaller than a cell would force every assignment onto the no-fit
// fallback path and collapse the upper bound.
func lbubGridSize(d *netlist.Design, m int, targetDensity float64) geom.Grid {
	var maxA, sumA float64
	nm := 0
	for c := 0; c < d.NumCells(); c++ {
		if d.CellKind[c] != netlist.Movable {
			continue
		}
		a := d.CellW[c] * d.CellH[c]
		sumA += a
		if a > maxA {
			maxA = a
		}
		nm++
	}
	if nm > 0 {
		avgA := sumA / float64(nm)
		for m > 1 {
			cap := d.Region.W() / float64(m) * (d.Region.H() / float64(m)) * targetDensity
			if cap >= 4*avgA && cap >= 1.5*maxA {
				break
			}
			m /= 2
		}
	}
	return geom.NewGrid(d.Region, m, m)
}

func (p *Placer) initLBUB(grid geom.Grid) {
	d := p.d
	n := d.NumCells()
	lb := &lbubEngine{prm: LBUBEffort(p.opts.Effort), grid: grid}
	if mi := p.opts.Sched.MaxIter; mi > 0 && mi < lb.prm.MaxSteps {
		lb.prm.MaxSteps = mi
	}
	lb.penalty = lb.prm.InitialPenalty

	x0, y0 := initialPositions(d, p.opts.Seed)
	lb.lbX, lb.lbY = x0, y0
	lb.ubX = append(make([]float64, 0, n), x0...)
	lb.ubY = append(make([]float64, 0, n), y0...)
	lb.tgtX = append(make([]float64, 0, n), x0...)
	lb.tgtY = append(make([]float64, 0, n), y0...)

	lb.movable = d.MovableCells()
	lb.strength = make([]float64, n)
	if len(lb.movable) > 0 {
		avg := d.MovableArea() / float64(len(lb.movable))
		for _, c := range lb.movable {
			if avg > 0 {
				lb.strength[c] = math.Sqrt(d.CellW[c] * d.CellH[c] / avg)
			} else {
				lb.strength[c] = 1
			}
		}
	}
	lb.cellBin = make([]int32, n)

	nb := grid.NumBins()
	lb.binCap = make([]float64, nb)
	lb.binUsed = make([]float64, nb)
	lb.binCurX = make([]float64, nb)
	lb.binCurY = make([]float64, nb)
	lb.binRowH = make([]float64, nb)
	target := p.opts.TargetDensity * grid.BinArea()
	for i := range lb.binCap {
		lb.binCap[i] = target
	}
	// Fixed cells consume bin capacity where they overlap the grid.
	for c := 0; c < n; c++ {
		if d.CellKind[c] != netlist.Fixed {
			continue
		}
		r := d.CellRect(c).Intersect(grid.Region)
		if r.Empty() {
			continue
		}
		x0b, x1b, y0b, y1b := grid.BinRange(r)
		for iy := y0b; iy < y1b; iy++ {
			for ix := x0b; ix < x1b; ix++ {
				ov := r.Intersect(grid.BinRect(ix, iy)).Area()
				idx := iy*grid.Nx + ix
				lb.binCap[idx] = math.Max(0, lb.binCap[idx]-ov)
			}
		}
	}
	p.lbub = lb
}

func (p *Placer) initLBUBInstruments() {
	m := p.opts.Metrics
	lb := p.lbub
	lb.mSteps = m.Counter("xplace_lbub_steps_total", "completed LB/UB alternation rounds")
	lb.gGap = m.Gauge("xplace_lbub_gap", "relative LB/UB wirelength gap (UB-LB)/UB")
	lb.gLB = m.Gauge("xplace_lbub_lb_hpwl", "lower-bound (net-model solve) HPWL")
	lb.gUB = m.Gauge("xplace_lbub_ub_hpwl", "upper-bound (rough-legalized) HPWL")
}

// lbubDone is the strategy's stop test: the gap tolerance is consulted
// only once at least one anchored round has run, so degenerate inputs
// still get a blended solution.
func (p *Placer) lbubDone() bool {
	lb := p.lbub
	if p.iter >= lb.prm.MaxSteps {
		return true
	}
	if !lb.haveUB || p.iter <= lb.prm.NbInitialSteps {
		return false
	}
	return lb.gap <= lb.prm.GapTolerance
}

// iterateLBUB runs one LB/UB round.
func (p *Placer) iterateLBUB() error {
	lb := p.lbub
	d := p.d
	if err := p.ctx.Err(); err != nil {
		return err
	}
	wallStart := time.Now()
	simStart := p.eng.SimulatedTime()

	useAnchors := lb.haveUB && p.iter >= lb.prm.NbInitialSteps
	gs := p.beginGroup()
	p.lbubSolveAxis(lb.lbX, d.PinOffX, lb.tgtX, d.CellW,
		d.Region.Lx, d.Region.Hx, lb.grid.Dx, useAnchors)
	p.lbubSolveAxis(lb.lbY, d.PinOffY, lb.tgtY, d.CellH,
		d.Region.Ly, d.Region.Hy, lb.grid.Dy, useAnchors)
	p.endGroup(gs, "lbub.lower_bound")

	// Cancellation point between the two passes: the LB state is
	// consistent and no engine scratch is mid-checkout.
	if err := p.ctx.Err(); err != nil {
		return err
	}

	gs = p.beginGroup()
	p.lbubUpperBound()
	p.endGroup(gs, "lbub.upper_bound")

	lb.lbHPWL = d.HPWL(lb.lbX, lb.lbY)
	lb.ubHPWL = d.HPWL(lb.ubX, lb.ubY)
	if lb.ubHPWL > 0 {
		lb.gap = math.Max(0, (lb.ubHPWL-lb.lbHPWL)/lb.ubHPWL)
	} else {
		lb.gap = 0
	}
	p.lastOverflow = lb.overflow(d.MovableArea())

	// Record mapping: HPWL carries the UB (deliverable) series, WA the LB
	// series, Lambda the anchor penalty, Omega the gap — so the existing
	// recorder/CSV/Progress plumbing shows both bounds converging.
	p.rec.Add(Record{
		Iter:     p.iter,
		HPWL:     lb.ubHPWL,
		WA:       lb.lbHPWL,
		Overflow: p.lastOverflow,
		Lambda:   lb.penalty,
		Omega:    lb.gap,
		WallTime: time.Since(wallStart),
		SimTime:  p.eng.SimulatedTime() - simStart,
	})
	lb.mSteps.Inc()
	lb.gGap.Set(lb.gap)
	lb.gLB.Set(lb.lbHPWL)
	lb.gUB.Set(lb.ubHPWL)

	if useAnchors {
		lb.penalty *= lb.prm.PenaltyUpdateFactor
	}
	p.iter++
	return nil
}

// lbubSolveAxis builds and solves one axis's B2B least-squares system at
// the current reference positions x, writing the solution back into x
// (the warm start keeps CG cheap after the first rounds). sizes carries
// the axis cell dimension, [lo, hi] the region extent and binDim the bin
// dimension that scales the preset's distance parameters.
func (p *Placer) lbubSolveAxis(x, off, tgt, sizes []float64, lo, hi, binDim float64, useAnchors bool) {
	lb := p.lbub
	d := p.d
	qb := &lb.qb
	qb.Reset(d.NumCells())
	eps := math.Max(1e-12, lb.prm.ApproximationDistance*binDim)

	addEdge := func(pi, pj int, invDeg float64) {
		ci, cj := d.PinCell[pi], d.PinCell[pj]
		if ci == cj {
			return // same-cell span is constant in the variables
		}
		vi := x[ci] + off[pi]
		vj := x[cj] + off[pj]
		w := invDeg / math.Max(eps, math.Abs(vi-vj))
		fi := d.CellKind[ci] != netlist.Movable
		fj := d.CellKind[cj] != netlist.Movable
		switch {
		case fi && fj:
		case fi:
			qb.AddAnchor(cj, w, vi-off[pj])
		case fj:
			qb.AddAnchor(ci, w, vj-off[pi])
		default:
			qb.AddEdge(ci, cj, w, off[pi]-off[pj])
		}
	}

	for netID := 0; netID < d.NumNets(); netID++ {
		s, e := d.NetPinStart[netID], d.NetPinStart[netID+1]
		deg := e - s
		if deg < 2 {
			continue
		}
		// Boundary pins at the reference positions.
		minP, maxP := s, s
		minV := x[d.PinCell[minP]] + off[minP]
		maxV := minV
		for pid := s + 1; pid < e; pid++ {
			v := x[d.PinCell[pid]] + off[pid]
			if v < minV {
				minV, minP = v, pid
			}
			if v > maxV {
				maxV, maxP = v, pid
			}
		}
		if minP == maxP { // all pins coincide; connect first-to-rest
			maxP = s
			if minP == maxP {
				maxP = s + 1
			}
		}
		invDeg := 1.0 / float64(deg-1)
		addEdge(minP, maxP, invDeg)
		for pid := s; pid < e; pid++ {
			if pid != minP && pid != maxP {
				addEdge(minP, pid, invDeg)
				addEdge(maxP, pid, invDeg)
			}
		}
	}

	if useAnchors {
		cutoff := math.Max(1e-12, lb.prm.PenaltyCutoffDistance*binDim)
		for _, c := range lb.movable {
			dist := math.Max(cutoff, math.Abs(x[c]-tgt[c]))
			qb.AddAnchor(c, lb.penalty*lb.strength[c]/dist, tgt[c])
		}
	}

	sys := qb.Build(x)
	lb.cg.Solve(p.eng, sys, x, lb.prm.MaxCGIters, lb.prm.CGTolerance)

	// Clamp movable cells into the region (pathological pin offsets can
	// pull the unconstrained optimum arbitrarily far out — the fallback
	// path must stay finite). The !(v >= l) form also catches NaN.
	for _, c := range lb.movable {
		half := sizes[c] / 2
		l, h := lo+half, hi-half
		if l > h {
			l = (lo + hi) / 2
			h = l
		}
		v := x[c]
		if !(v >= l) {
			v = l
		}
		if v > h {
			v = h
		}
		x[c] = v
	}
}

// lbubUpperBound derives the upper-bound placement: movable cells are
// assigned to bins under the free-capacity targets (nearest bin with room,
// searched in growing Chebyshev rings around the LB position) and packed
// into their bin in rows. Deterministic by construction: the assignment
// order is a strict total order and the ring scan has a fixed traversal.
func (p *Placer) lbubUpperBound() {
	lb := p.lbub
	d := p.d
	g := lb.grid
	for i := range lb.binUsed {
		lb.binUsed[i] = 0
	}

	// Larger cells first: they fragment remaining capacity the least.
	order := append(lb.order[:0], lb.movable...)
	sort.Slice(order, func(a, b int) bool {
		ca, cb := order[a], order[b]
		aa := d.CellW[ca] * d.CellH[ca]
		ab := d.CellW[cb] * d.CellH[cb]
		if aa != ab {
			return aa > ab
		}
		if lb.lbX[ca] != lb.lbX[cb] {
			return lb.lbX[ca] < lb.lbX[cb]
		}
		if lb.lbY[ca] != lb.lbY[cb] {
			return lb.lbY[ca] < lb.lbY[cb]
		}
		return ca < cb
	})
	lb.order = order

	for _, c := range order {
		area := d.CellW[c] * d.CellH[c]
		bx, by := g.BinCoords(geom.Point{X: lb.lbX[c], Y: lb.lbY[c]})
		ix, iy := lb.findBin(bx, by, area, lb.lbX[c], lb.lbY[c])
		idx := int32(iy*g.Nx + ix)
		lb.binUsed[idx] += area
		lb.cellBin[c] = idx
	}

	// Row-pack each bin's cells in assignment order.
	for i := range lb.binCurX {
		r := g.BinRect(i%g.Nx, i/g.Nx)
		lb.binCurX[i] = r.Lx
		lb.binCurY[i] = r.Ly
		lb.binRowH[i] = 0
	}
	for _, c := range order {
		b := lb.cellBin[c]
		r := g.BinRect(int(b)%g.Nx, int(b)/g.Nx)
		w, h := d.CellW[c], d.CellH[c]
		if lb.binCurX[b] > r.Lx && lb.binCurX[b]+w > r.Hx {
			lb.binCurX[b] = r.Lx
			lb.binCurY[b] += lb.binRowH[b]
			lb.binRowH[b] = 0
		}
		x := lb.binCurX[b] + w/2
		y := lb.binCurY[b] + h/2
		lb.binCurX[b] += w
		if h > lb.binRowH[b] {
			lb.binRowH[b] = h
		}
		lb.ubX[c] = clampCenter(x, d.Region.Lx, d.Region.Hx, w)
		lb.ubY[c] = clampCenter(y, d.Region.Ly, d.Region.Hy, h)
	}
	copy(lb.tgtX, lb.ubX)
	copy(lb.tgtY, lb.ubY)
	lb.haveUB = true
}

// clampCenter clamps a cell-center coordinate so the cell stays inside
// [lo, hi]; oversize cells sit at the span center.
func clampCenter(v, lo, hi, size float64) float64 {
	l, h := lo+size/2, hi-size/2
	if l > h {
		return (lo + hi) / 2
	}
	return geom.Clamp(v, l, h)
}

// findBin locates the nearest bin (growing Chebyshev rings around the
// preferred bin) whose free capacity fits area; within the first ring
// that has room, the candidate closest to the LB position wins, ties
// resolved by scan order. A cell no bin can hold falls back to its
// preferred bin.
func (lb *lbubEngine) findBin(bx, by int, area, px, py float64) (int, int) {
	g := lb.grid
	maxR := g.Nx
	if g.Ny > maxR {
		maxR = g.Ny
	}
	for r := 0; r <= maxR; r++ {
		bestIx, bestIy := -1, -1
		bestD := math.Inf(1)
		for iy := by - r; iy <= by+r; iy++ {
			if iy < 0 || iy >= g.Ny {
				continue
			}
			for ix := bx - r; ix <= bx+r; ix++ {
				if ix < 0 || ix >= g.Nx {
					continue
				}
				if max2(abs2(ix-bx), abs2(iy-by)) != r {
					continue // interior of the ring: already scanned
				}
				idx := iy*g.Nx + ix
				if lb.binUsed[idx]+area > lb.binCap[idx] {
					continue
				}
				c := g.BinRect(ix, iy).Center()
				d2 := (c.X-px)*(c.X-px) + (c.Y-py)*(c.Y-py)
				if d2 < bestD {
					bestD, bestIx, bestIy = d2, ix, iy
				}
			}
		}
		if bestIx >= 0 {
			return bestIx, bestIy
		}
	}
	return bx, by
}

func abs2(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

func max2(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// overflow reports the UB assignment's capacity violation as a fraction
// of the movable area — the same normalization as the electrostatic
// flow's overflow ratio, so Result.Overflow stays comparable.
func (lb *lbubEngine) overflow(movArea float64) float64 {
	if movArea <= 0 {
		return 0
	}
	var over float64
	for i := range lb.binUsed {
		if o := lb.binUsed[i] - lb.binCap[i]; o > 0 {
			over += o
		}
	}
	return over / movArea
}
