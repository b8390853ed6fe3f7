// Package viz renders placements for inspection as SVG (cells colored by
// kind, fences and macros outlined): plain text, dependency-free and
// diffable.
package viz

import (
	"bufio"
	"fmt"
	"io"

	"xplace/internal/netlist"
)

// width is the image width in pixels; the height follows the region's
// aspect ratio.
const width float64 = 800

// WriteSVG renders the design at positions (x, y) (nil means stored) as
// an SVG document.
func WriteSVG(w io.Writer, d *netlist.Design, x, y []float64) error {
	if x == nil {
		x = d.CellX
	}
	if y == nil {
		y = d.CellY
	}
	bw := bufio.NewWriter(w)
	scale := width / d.Region.W()
	hpx := d.Region.H() * scale
	// SVG y grows downward; flip.
	fy := func(v float64) float64 { return (d.Region.Hy - v) * scale }
	fx := func(v float64) float64 { return (v - d.Region.Lx) * scale }

	fmt.Fprintf(bw, `<svg xmlns="http://www.w3.org/2000/svg" width="%.0f" height="%.0f" viewBox="0 0 %.0f %.0f">`+"\n",
		width, hpx, width, hpx)
	fmt.Fprintf(bw, `<rect width="%.0f" height="%.0f" fill="#ffffff" stroke="#000000"/>`+"\n", width, hpx)

	// Rows as faint lines.
	for _, r := range d.Rows {
		fmt.Fprintf(bw, `<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" stroke="#eeeeee" stroke-width="0.5"/>`+"\n",
			fx(r.X0), fy(r.Y), fx(r.X1), fy(r.Y))
	}
	// Fences.
	for _, f := range d.Fences {
		fmt.Fprintf(bw, `<rect x="%.1f" y="%.1f" width="%.1f" height="%.1f" fill="none" stroke="#cc8800" stroke-width="1.5" stroke-dasharray="4,3"/>`+"\n",
			fx(f.Lx), fy(f.Hy), f.W()*scale, f.H()*scale)
	}
	// Cells.
	for c := 0; c < d.NumCells(); c++ {
		var fill string
		switch d.CellKind[c] {
		case netlist.Fixed:
			fill = "#888888"
		case netlist.Filler:
			continue
		default:
			fill = "#4477cc"
			if d.CellFence[c] >= 0 {
				fill = "#cc8800"
			}
		}
		lx := x[c] - d.CellW[c]/2
		hy := y[c] + d.CellH[c]/2
		fmt.Fprintf(bw, `<rect x="%.2f" y="%.2f" width="%.2f" height="%.2f" fill="%s" fill-opacity="0.7" stroke="#223355" stroke-width="0.2"/>`+"\n",
			fx(lx), fy(hy), d.CellW[c]*scale, d.CellH[c]*scale, fill)
	}
	fmt.Fprintln(bw, `</svg>`)
	return bw.Flush()
}
