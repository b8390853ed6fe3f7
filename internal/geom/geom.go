// Package geom provides the small geometric vocabulary shared by every
// placement module: points, rectangles, and the uniform bin grid that the
// electrostatic density model is discretized on.
//
// All coordinates are float64 in the database unit of the design (bookshelf
// rows are integer-valued, but global placement moves cells continuously).
package geom

import (
	"fmt"
	"math"
)

// Point is a 2-D position.
type Point struct {
	X, Y float64
}

// Rect is an axis-aligned rectangle described by its lower-left (Lx, Ly)
// and upper-right (Hx, Hy) corners. A Rect with Hx <= Lx or Hy <= Ly is
// considered empty.
type Rect struct {
	Lx, Ly, Hx, Hy float64
}

// W returns the width of r (may be negative for malformed rects).
func (r Rect) W() float64 { return r.Hx - r.Lx }

// H returns the height of r.
func (r Rect) H() float64 { return r.Hy - r.Ly }

// Area returns the area of r, or 0 if r is empty.
func (r Rect) Area() float64 {
	if r.Empty() {
		return 0
	}
	return r.W() * r.H()
}

// Empty reports whether r encloses no area.
func (r Rect) Empty() bool { return r.Hx <= r.Lx || r.Hy <= r.Ly }

// Center returns the center point of r.
func (r Rect) Center() Point { return Point{(r.Lx + r.Hx) / 2, (r.Ly + r.Hy) / 2} }

// ContainsRect reports whether q lies fully inside r (inclusive).
func (r Rect) ContainsRect(q Rect) bool {
	return q.Lx >= r.Lx && q.Hx <= r.Hx && q.Ly >= r.Ly && q.Hy <= r.Hy
}

// Intersect returns the intersection of r and q (possibly empty).
func (r Rect) Intersect(q Rect) Rect {
	return Rect{
		Lx: math.Max(r.Lx, q.Lx),
		Ly: math.Max(r.Ly, q.Ly),
		Hx: math.Min(r.Hx, q.Hx),
		Hy: math.Min(r.Hy, q.Hy),
	}
}

// Union returns the bounding box of r and q. If either is empty the other
// is returned.
func (r Rect) Union(q Rect) Rect {
	if r.Empty() {
		return q
	}
	if q.Empty() {
		return r
	}
	return Rect{
		Lx: math.Min(r.Lx, q.Lx),
		Ly: math.Min(r.Ly, q.Ly),
		Hx: math.Max(r.Hx, q.Hx),
		Hy: math.Max(r.Hy, q.Hy),
	}
}

func (r Rect) String() string {
	return fmt.Sprintf("[%g,%g %g,%g]", r.Lx, r.Ly, r.Hx, r.Hy)
}

// Clamp returns v limited to the closed interval [lo, hi].
func Clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Grid is a uniform MxN bin grid over a region. The electrostatic system of
// the placer is discretized on a Grid; the router's gcell grid reuses it.
type Grid struct {
	Region Rect
	Nx, Ny int     // bin counts in x and y
	Dx, Dy float64 // bin dimensions
}

// NewGrid uniformly splits region into nx x ny bins.
func NewGrid(region Rect, nx, ny int) Grid {
	if nx < 1 || ny < 1 {
		panic(fmt.Sprintf("geom: invalid grid %dx%d", nx, ny))
	}
	return Grid{
		Region: region,
		Nx:     nx,
		Ny:     ny,
		Dx:     region.W() / float64(nx),
		Dy:     region.H() / float64(ny),
	}
}

// NumBins returns the total bin count Nx*Ny.
func (g Grid) NumBins() int { return g.Nx * g.Ny }

// BinArea returns the area of a single bin.
func (g Grid) BinArea() float64 { return g.Dx * g.Dy }

// BinCoords returns the (ix, iy) bin coordinates of the bin containing p,
// clamped into the grid.
func (g Grid) BinCoords(p Point) (int, int) {
	ix := int((p.X - g.Region.Lx) / g.Dx)
	iy := int((p.Y - g.Region.Ly) / g.Dy)
	ix = clampInt(ix, 0, g.Nx-1)
	iy = clampInt(iy, 0, g.Ny-1)
	return ix, iy
}

// BinRect returns the rectangle of bin (ix, iy).
func (g Grid) BinRect(ix, iy int) Rect {
	x := g.Region.Lx + float64(ix)*g.Dx
	y := g.Region.Ly + float64(iy)*g.Dy
	return Rect{x, y, x + g.Dx, y + g.Dy}
}

// BinRange returns the half-open ranges [x0,x1) x [y0,y1) of bins that the
// rectangle r touches, clamped into the grid. Callers iterate bins as
// for iy := y0; iy < y1; iy++ { for ix := x0; ix < x1; ix++ { ... } }.
func (g Grid) BinRange(r Rect) (x0, x1, y0, y1 int) {
	if r.Empty() {
		return 0, 0, 0, 0
	}
	x0 = clampInt(int(math.Floor((r.Lx-g.Region.Lx)/g.Dx)), 0, g.Nx-1)
	y0 = clampInt(int(math.Floor((r.Ly-g.Region.Ly)/g.Dy)), 0, g.Ny-1)
	x1 = clampInt(int(math.Ceil((r.Hx-g.Region.Lx)/g.Dx)), 1, g.Nx)
	y1 = clampInt(int(math.Ceil((r.Hy-g.Region.Ly)/g.Dy)), 1, g.Ny)
	if x1 <= x0 {
		x1 = x0 + 1
	}
	if y1 <= y0 {
		y1 = y0 + 1
	}
	return x0, x1, y0, y1
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
