package viz

import (
	"bytes"
	"strings"
	"testing"

	"xplace/internal/geom"
	"xplace/internal/netlist"
)

func vizDesign(t *testing.T) *netlist.Design {
	t.Helper()
	d := netlist.NewDesign("viz", geom.Rect{Hx: 20, Hy: 10})
	d.Rows = append(d.Rows, netlist.Row{Y: 0, X0: 0, X1: 20, Height: 5, SiteWidth: 1})
	f := d.AddFence(geom.Rect{Lx: 0, Ly: 0, Hx: 8, Hy: 10})
	a := d.AddCell("a", 2, 5, 3, 2.5, netlist.Movable)
	d.SetFence(a, f)
	b := d.AddCell("b", 2, 5, 12, 2.5, netlist.Movable)
	d.AddCell("m", 4, 4, 16, 7, netlist.Fixed)
	d.AddCell("fl", 1, 1, 9, 9, netlist.Filler)
	d.AddNet("n")
	d.AddPin(a, 0, 0)
	d.AddPin(b, 0, 0)
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
	return d
}

func TestWriteSVG(t *testing.T) {
	d := vizDesign(t)
	var buf bytes.Buffer
	if err := WriteSVG(&buf, d, nil, nil); err != nil {
		t.Fatal(err)
	}
	svg := buf.String()
	for _, want := range []string{
		"<svg", "</svg>",
		`fill="#4477cc"`,   // movable
		`fill="#888888"`,   // fixed macro
		`fill="#cc8800"`,   // fenced cell
		"stroke-dasharray", // fence outline
		`width="800"`,      // default width
	} {
		if !strings.Contains(svg, want) {
			t.Errorf("SVG missing %q", want)
		}
	}
	// Fillers are not drawn.
	if strings.Count(svg, "<rect") != 1+4 { // background + 3 cells + fence
		t.Errorf("unexpected rect count: %d", strings.Count(svg, "<rect"))
	}
}

func TestWriteSVGWithOverridePositions(t *testing.T) {
	d := vizDesign(t)
	x := append([]float64(nil), d.CellX...)
	y := append([]float64(nil), d.CellY...)
	x[0] = 5
	var a, b bytes.Buffer
	if err := WriteSVG(&a, d, nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := WriteSVG(&b, d, x, y); err != nil {
		t.Fatal(err)
	}
	if a.String() == b.String() {
		t.Error("override positions had no effect")
	}
}
