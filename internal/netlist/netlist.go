// Package netlist defines the circuit data model shared by every placement
// stage: cells, pins and nets in flat CSR arrays (struct-of-arrays layout —
// the hot loops of the placer index these slices directly, mirroring the
// flat GPU tensors of the paper's implementation).
//
// Coordinate convention: CellX/CellY hold cell *centers*. File formats that
// use lower-left corners (bookshelf .pl, DEF) are converted at the parser
// boundary.
package netlist

import (
	"errors"
	"fmt"
	"math"

	"xplace/internal/geom"
)

// CellKind classifies a cell for the placer.
type CellKind uint8

const (
	// Movable cells are optimized by global placement.
	Movable CellKind = iota
	// Fixed cells (macros, pads, pre-placed blocks) never move and act as
	// obstacles in the density system.
	Fixed
	// Filler cells are whitespace fillers inserted for the electrostatic
	// system (§3.1.2, WithFillers); they follow the real cells, move but
	// carry no pins, and are discarded after global placement.
	Filler
)

func (k CellKind) String() string {
	switch k {
	case Movable:
		return "movable"
	case Fixed:
		return "fixed"
	case Filler:
		return "filler"
	}
	return fmt.Sprintf("CellKind(%d)", uint8(k))
}

// Row is one placement row (bookshelf .scl / DEF ROW): standard cells must
// sit on a row with their lower edge at Y.
type Row struct {
	Y         float64 // lower edge
	X0, X1    float64 // horizontal extent
	Height    float64
	SiteWidth float64 // legal x positions are X0 + k*SiteWidth
}

// Design is a placement instance. Build one with NewDesign/AddCell/AddNet/
// AddPin and seal it with Finish before handing it to the placer.
type Design struct {
	Name   string
	Region geom.Rect
	Rows   []Row

	// Per-cell arrays, indexed by cell id (fillers carry "" names).
	CellName []string
	CellW    []float64
	CellH    []float64
	CellKind []CellKind
	CellX    []float64 // center x
	CellY    []float64 // center y

	// Per-net / per-pin CSR arrays, indexed by net id and pin id.
	NetName     []string
	NetPinStart []int // len numNets+1; pins of net n are [NetPinStart[n], NetPinStart[n+1])
	PinCell     []int
	PinNet      []int
	PinOffX     []float64 // pin offset from the cell center
	PinOffY     []float64

	// Reverse map, built by Finish.
	CellPinStart []int // len numCells+1
	CellPins     []int // pin ids grouped by cell
	CellNetDeg   []int // |S_i|: number of distinct nets touching cell i

	// Fence regions (an extension beyond the paper's evaluation — its
	// stated future work): movable cells assigned to a fence must stay
	// inside it. CellFence is -1 for unconstrained cells.
	Fences    []geom.Rect
	CellFence []int

	finished bool
	// Builder state: pins are appended net-by-net.
	curNetOpen bool
}

// NewDesign returns an empty design over the given placement region.
func NewDesign(name string, region geom.Rect) *Design {
	if region.Empty() {
		panic("netlist: empty placement region")
	}
	return &Design{
		Name:        name,
		Region:      region,
		NetPinStart: []int{0},
	}
}

// NumCells returns the total cell count (all kinds).
func (d *Design) NumCells() int { return len(d.CellW) }

// NumNets returns the net count.
func (d *Design) NumNets() int { return len(d.NetName) }

// NumPins returns the pin count.
func (d *Design) NumPins() int { return len(d.PinCell) }

// AddCell appends a cell with center position (x, y) and returns its id.
func (d *Design) AddCell(name string, w, h, x, y float64, kind CellKind) int {
	if d.finished {
		panic("netlist: AddCell after Finish")
	}
	if w < 0 || h < 0 {
		panic(fmt.Sprintf("netlist: cell %q has negative size %gx%g", name, w, h))
	}
	d.CellName = append(d.CellName, name)
	d.CellW = append(d.CellW, w)
	d.CellH = append(d.CellH, h)
	d.CellX = append(d.CellX, x)
	d.CellY = append(d.CellY, y)
	d.CellKind = append(d.CellKind, kind)
	d.CellFence = append(d.CellFence, -1)
	return len(d.CellW) - 1
}

// AddFence registers a fence region and returns its id. Must be inside
// the placement region.
func (d *Design) AddFence(r geom.Rect) int {
	if d.finished {
		panic("netlist: AddFence after Finish")
	}
	if r.Empty() || !d.Region.ContainsRect(r) {
		panic(fmt.Sprintf("netlist: fence %v outside region %v", r, d.Region))
	}
	d.Fences = append(d.Fences, r)
	return len(d.Fences) - 1
}

// SetFence constrains cell c to fence f (-1 clears the constraint).
func (d *Design) SetFence(c, f int) {
	if d.finished {
		panic("netlist: SetFence after Finish")
	}
	if f >= len(d.Fences) || f < -1 {
		panic(fmt.Sprintf("netlist: unknown fence %d", f))
	}
	d.CellFence[c] = f
}

// FenceOf returns the fence rect constraining cell c; ok is false for
// unconstrained cells.
func (d *Design) FenceOf(c int) (geom.Rect, bool) {
	if len(d.CellFence) <= c || d.CellFence[c] < 0 {
		return geom.Rect{}, false
	}
	return d.Fences[d.CellFence[c]], true
}

// AddNet starts a new net and returns its id. Pins added subsequently with
// AddPin belong to the most recently added net.
func (d *Design) AddNet(name string) int {
	if d.finished {
		panic("netlist: AddNet after Finish")
	}
	d.NetName = append(d.NetName, name)
	d.NetPinStart = append(d.NetPinStart, len(d.PinCell))
	d.curNetOpen = true
	return len(d.NetName) - 1
}

// AddPin appends a pin on the current net attached to cell with the given
// offset from the cell center. Returns the pin id.
func (d *Design) AddPin(cell int, offX, offY float64) int {
	if d.finished {
		panic("netlist: AddPin after Finish")
	}
	if !d.curNetOpen {
		panic("netlist: AddPin before any AddNet")
	}
	if cell < 0 || cell >= len(d.CellW) {
		panic(fmt.Sprintf("netlist: pin references unknown cell %d", cell))
	}
	d.PinCell = append(d.PinCell, cell)
	d.PinNet = append(d.PinNet, len(d.NetName)-1)
	d.PinOffX = append(d.PinOffX, offX)
	d.PinOffY = append(d.PinOffY, offY)
	d.NetPinStart[len(d.NetPinStart)-1] = len(d.PinCell)
	return len(d.PinCell) - 1
}

// Finish seals the design: builds the cell->pin reverse map and the
// distinct-net degree used by the preconditioner, and validates invariants.
func (d *Design) Finish() error {
	if d.finished {
		return errors.New("netlist: Finish called twice")
	}
	n := d.NumCells()
	// Count pins per cell.
	d.CellPinStart = make([]int, n+1)
	for _, c := range d.PinCell {
		d.CellPinStart[c+1]++
	}
	for i := 0; i < n; i++ {
		d.CellPinStart[i+1] += d.CellPinStart[i]
	}
	d.CellPins = make([]int, d.NumPins())
	fill := make([]int, n)
	for p, c := range d.PinCell {
		d.CellPins[d.CellPinStart[c]+fill[c]] = p
		fill[c]++
	}
	// Distinct nets per cell: pins of a cell on the same net are counted
	// once (|S_i| of §3.2). stamp[net] == c+1 marks a net already counted
	// for cell c.
	d.CellNetDeg = make([]int, n)
	stamp := make([]int, d.NumNets())
	for c := 0; c < n; c++ {
		deg := 0
		for _, p := range d.CellPins[d.CellPinStart[c]:d.CellPinStart[c+1]] {
			if net := d.PinNet[p]; stamp[net] != c+1 {
				stamp[net] = c + 1
				deg++
			}
		}
		d.CellNetDeg[c] = deg
	}
	// Validate.
	for c := 0; c < n; c++ {
		if d.CellKind[c] == Filler && d.CellPinStart[c+1] > d.CellPinStart[c] {
			return fmt.Errorf("netlist: filler cell %q has pins", d.CellName[c])
		}
	}
	for net := 0; net < d.NumNets(); net++ {
		if d.NetPinStart[net+1] < d.NetPinStart[net] {
			return fmt.Errorf("netlist: net %q has negative pin range", d.NetName[net])
		}
	}
	d.finished = true
	return nil
}

// Finished reports whether Finish succeeded.
func (d *Design) Finished() bool { return d.finished }

// Clone returns a deep, UNfinished copy of the design: all cells, nets and
// pins are copied, but the reverse maps are dropped so the copy can be
// edited before calling Finish again. It has no non-test caller: tests
// take it as the reference snapshot a run must leave the design equal to.
func (d *Design) Clone() *Design {
	c := &Design{
		Name:        d.Name,
		Region:      d.Region,
		Rows:        append([]Row(nil), d.Rows...),
		CellName:    append([]string(nil), d.CellName...),
		CellW:       append([]float64(nil), d.CellW...),
		CellH:       append([]float64(nil), d.CellH...),
		CellKind:    append([]CellKind(nil), d.CellKind...),
		CellX:       append([]float64(nil), d.CellX...),
		CellY:       append([]float64(nil), d.CellY...),
		NetName:     append([]string(nil), d.NetName...),
		NetPinStart: append([]int(nil), d.NetPinStart...),
		PinCell:     append([]int(nil), d.PinCell...),
		PinNet:      append([]int(nil), d.PinNet...),
		PinOffX:     append([]float64(nil), d.PinOffX...),
		PinOffY:     append([]float64(nil), d.PinOffY...),
		Fences:      append([]geom.Rect(nil), d.Fences...),
		CellFence:   append([]int(nil), d.CellFence...),
	}
	c.curNetOpen = len(c.NetName) > 0
	return c
}

// CellRect returns the rectangle currently occupied by cell c.
func (d *Design) CellRect(c int) geom.Rect {
	hw, hh := d.CellW[c]/2, d.CellH[c]/2
	return geom.Rect{
		Lx: d.CellX[c] - hw, Ly: d.CellY[c] - hh,
		Hx: d.CellX[c] + hw, Hy: d.CellY[c] + hh,
	}
}

// HPWL computes the total half-perimeter wirelength of the design for the
// given cell-center coordinate arrays (nil means stored positions).
// Single-pin and empty nets contribute zero.
func (d *Design) HPWL(x, y []float64) float64 {
	if x == nil {
		x = d.CellX
	}
	if y == nil {
		y = d.CellY
	}
	var total float64
	for n := 0; n < d.NumNets(); n++ {
		s, e := d.NetPinStart[n], d.NetPinStart[n+1]
		if e-s < 2 {
			continue
		}
		minX, maxX := math.Inf(1), math.Inf(-1)
		minY, maxY := math.Inf(1), math.Inf(-1)
		for p := s; p < e; p++ {
			c := d.PinCell[p]
			px := x[c] + d.PinOffX[p]
			py := y[c] + d.PinOffY[p]
			minX = math.Min(minX, px)
			maxX = math.Max(maxX, px)
			minY = math.Min(minY, py)
			maxY = math.Max(maxY, py)
		}
		total += (maxX - minX) + (maxY - minY)
	}
	return total
}

// MovableCells returns the ids of all movable (non-fixed, non-filler)
// cells.
func (d *Design) MovableCells() []int {
	var out []int
	for c, k := range d.CellKind {
		if k == Movable {
			out = append(out, c)
		}
	}
	return out
}

// MovableArea returns the total area of movable cells.
func (d *Design) MovableArea() float64 {
	var a float64
	for c, k := range d.CellKind {
		if k == Movable {
			a += d.CellW[c] * d.CellH[c]
		}
	}
	return a
}

// FixedArea returns the total area of fixed cells clipped to the region.
func (d *Design) FixedArea() float64 {
	var a float64
	for c, k := range d.CellKind {
		if k == Fixed {
			a += d.CellRect(c).Intersect(d.Region).Area()
		}
	}
	return a
}

// Utilization returns movable area over free area (region minus fixed).
func (d *Design) Utilization() float64 {
	free := d.Region.Area() - d.FixedArea()
	if free <= 0 {
		return math.Inf(1)
	}
	return d.MovableArea() / free
}

// WithFillers returns a finished design with d's cells followed by filler
// cells, so the electrostatic system sees a total density near
// targetDensity (§3.1.2, Eq. 9-10): total filler area is
// targetDensity*(region - fixed) - movable, split into square cells sized
// like the average movable cell and spread uniformly over the region by a
// deterministic low-discrepancy sequence. The tables fillers do not touch
// (nets, pins, CellPins, rows, fences) are d's own slices; every per-cell
// slice is a fresh copy extended by the fillers, which carry "" names. d
// must be finished and is left unchanged.
func (d *Design) WithFillers(targetDensity float64) *Design {
	if !d.finished {
		panic("netlist: WithFillers before Finish")
	}
	movable := 0
	var movArea float64
	for c, k := range d.CellKind {
		if k == Movable {
			movable++
			movArea += d.CellW[c] * d.CellH[c]
		}
	}
	count, side := 0, 0.0
	if movable > 0 {
		side = math.Sqrt(movArea / float64(movable))
		if fillArea := targetDensity*(d.Region.Area()-d.FixedArea()) - movArea; fillArea > 0 && side > 0 {
			count = int(fillArea / (side * side))
		}
	}
	n, total := d.NumCells(), d.NumCells()+count
	a := *d
	a.CellName = extend(d.CellName, total, "")
	a.CellW = extend(d.CellW, total, side)
	a.CellH = extend(d.CellH, total, side)
	a.CellKind = extend(d.CellKind, total, Filler)
	a.CellFence = extend(d.CellFence, total, -1)
	a.CellNetDeg = extend(d.CellNetDeg, total, 0)
	a.CellPinStart = extend(d.CellPinStart, total+1, d.NumPins())
	a.CellX = extend(d.CellX, total, 0)
	a.CellY = extend(d.CellY, total, 0)
	// Halton-like (2,3) low-discrepancy placement keeps the initial filler
	// distribution uniform and deterministic.
	for i := 0; i < count; i++ {
		a.CellX[n+i] = d.Region.Lx + halton(i+1, 2)*d.Region.W()
		a.CellY[n+i] = d.Region.Ly + halton(i+1, 3)*d.Region.H()
	}
	return &a
}

// extend returns a copy of s lengthened to n entries in one allocation,
// the new entries set to v.
func extend[T any](s []T, n int, v T) []T {
	out := make([]T, n)
	copy(out, s)
	for i := len(s); i < n; i++ {
		out[i] = v
	}
	return out
}

func halton(i, base int) float64 {
	f := 1.0
	r := 0.0
	for i > 0 {
		f /= float64(base)
		r += f * float64(i%base)
		i /= base
	}
	return r
}

// Stats summarizes a design for reporting (Table 1).
type Stats struct {
	Name     string
	Cells    int // movable + fixed (fillers excluded)
	Movable  int
	Fixed    int
	Fillers  int
	Nets     int
	Pins     int
	Util     float64
	RowCount int
}

// Stats computes summary statistics.
func (d *Design) Stats() Stats {
	s := Stats{Name: d.Name, Nets: d.NumNets(), Pins: d.NumPins(), RowCount: len(d.Rows)}
	for _, k := range d.CellKind {
		switch k {
		case Movable:
			s.Movable++
		case Fixed:
			s.Fixed++
		case Filler:
			s.Fillers++
		}
	}
	s.Cells = s.Movable + s.Fixed
	s.Util = d.Utilization()
	return s
}
